package analysis

import (
	"go/ast"
	"maps"
	"path/filepath"
	"testing"
)

// TestWalkerRules pins the shared path walker's control-flow rules on the
// cases the epochbump and lockorder fixtures carry for them (DESIGN.md
// §6.1): a switch with a default and a select never fall past their
// clauses, select comm statements run, code after a return is dead,
// return and panic exit through the defers registered on their path, a
// defer on one branch covers only that branch, labeled branch statements
// inside a twice-walked loop keep the loop's answer, a break joins its
// loop's exit and a continue the end of its loop's pass. Each subtest
// reads the rules through its own lattice: epochbump's verdict is whether
// a blessed mutator with the case's body would be reported, and
// lockorder's (a held-set flow local to this file) whether the case's
// lock is held where it takes probe.
func TestWalkerRules(t *testing.T) {
	loader := NewLoader()
	load := func(dir, path string) *Package {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir), path)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		return pkg
	}

	t.Run("epochbump", func(t *testing.T) {
		pkg := load("epochbump", "fixture/topology")
		eng := &ebEngine{idx: BuildIndex([]*Package{pkg}), memo: make(map[FuncKey]ebSummary), busy: make(map[FuncKey]bool)}
		for name, wantDirty := range map[string]bool{
			"switchDefault":     false,
			"selectDefault":     false,
			"selectBlocking":    false,
			"afterReturn":       false,
			"panicDeferred":     false,
			"panicBeforeDefer":  true,
			"deferOneBranch":    true,
			"labeledLoop":       false,
			"selectComm":        true,
			"breakSkipsBump":    true,
			"continueSkipsBump": true,
		} {
			if got := eng.summary("fixture/topology.(Topology)." + name).mayExitDirty; got != wantDirty {
				t.Errorf("%s: may exit dirty = %v, want %v", name, got, wantDirty)
			}
		}
	})

	t.Run("lockorder", func(t *testing.T) {
		pkg := load("lockorder", "fixture/netstate")
		flow := &heldFlow{edges: make(map[string]bool)}
		forEachFunc([]*Package{pkg}, func(_ *Package, fd *ast.FuncDecl) {
			walkBody(pkg, flow, fd.Body, make(map[string]bool))
		})
		for lock, wantEdge := range map[string]bool{
			"sw":   false,
			"sel":  false,
			"selb": true,
			"ret":  false,
			"pan":  true,
			"def":  true,
			"loop": false,
			"brk":  true,
			"cont": true,
		} {
			if flow.edges[lock] != wantEdge {
				t.Errorf("%s -> probe: edge = %v, want %v", lock, flow.edges[lock], wantEdge)
			}
		}
	})
}

// heldFlow is a lock-order lattice over the shared walker: the state is
// the set of locks that may be held, joined by union. x.l.Lock() adds l,
// x.l.Unlock() removes it, a deferred unlock runs only at exit, and a call
// of probed() records an edge from every held lock to probe.
type heldFlow struct {
	edges map[string]bool
}

func (*heldFlow) copy(held map[string]bool) map[string]bool { return maps.Clone(held) }

func (*heldFlow) join(a, b map[string]bool) map[string]bool {
	maps.Copy(a, b)
	return a
}

func (*heldFlow) exit(map[string]bool) {}

func (f *heldFlow) stmt(s ast.Stmt, held map[string]bool) map[string]bool { return f.apply(s, held) }

func (f *heldFlow) expr(e ast.Expr, held map[string]bool) map[string]bool { return f.apply(e, held) }

func (*heldFlow) deferred(_ *ast.DeferStmt, held map[string]bool) map[string]bool { return held }

// apply runs the lock and probe calls in n in source order, outside
// function literals.
func (f *heldFlow) apply(n ast.Node, held map[string]bool) map[string]bool {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		lock, _ := sel.X.(*ast.SelectorExpr)
		switch {
		case sel.Sel.Name == "probed":
			for l := range held {
				f.edges[l] = true
			}
		case sel.Sel.Name == "Lock" && lock != nil:
			held[lock.Sel.Name] = true
		case sel.Sel.Name == "Unlock" && lock != nil:
			delete(held, lock.Sel.Name)
		}
		return true
	})
	return held
}
