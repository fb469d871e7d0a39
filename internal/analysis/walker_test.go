package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// TestWalkerRules pins the shared path walker's control-flow rules on the
// cases the epochbump, poolescape and lockorder fixtures carry for them
// (DESIGN.md §6.1): a switch with a default and a select never fall past
// their clauses, select comm statements run, code after a return is
// dead, return and panic exit through the defers registered on their
// path, a defer on one branch covers only that branch, and labeled
// branch statements inside a twice-walked loop keep the loop's answer.
// Each check reads the rules through its own lattice: epochbump's verdict
// is whether a blessed mutator with the case's body would be reported,
// poolescape's whether the case's Get is reported, and lockorder's
// whether the case's lock is held where it takes probe.
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
			"switchDefault":    false,
			"selectDefault":    false,
			"selectBlocking":   false,
			"afterReturn":      false,
			"panicDeferred":    false,
			"panicBeforeDefer": true,
			"deferOneBranch":   true,
			"labeledLoop":      false,
		} {
			if got := eng.summary("fixture/topology.(Topology)." + name).mayExitDirty; got != wantDirty {
				t.Errorf("%s: may exit dirty = %v, want %v", name, got, wantDirty)
			}
		}
	})

	t.Run("poolescape", func(t *testing.T) {
		pkg := load("poolescape", "fixture/stablematch")
		leaks := make(map[string]bool)
		for _, f := range Run([]*Package{pkg}, []Check{PoolEscape{}}) {
			if strings.Contains(f.Msg, "may not be returned to its pool") {
				leaks[enclosingFunc(pkg, f.Pos.Line)] = true
			}
		}
		for name, wantLeak := range map[string]bool{
			"SwitchDefault":  false,
			"SelectDefault":  false,
			"SelectBlocking": false,
			"AfterReturn":    false,
			"PanicDeferred":  false,
			"DeferOneBranch": true,
			"LabeledLoop":    false,
		} {
			if leaks[name] != wantLeak {
				t.Errorf("%s: Get reported = %v, want %v", name, leaks[name], wantLeak)
			}
		}
	})

	t.Run("lockorder", func(t *testing.T) {
		pkg := load("lockorder", "fixture/netstate")
		edges := make(map[string]bool)
		for _, e := range BuildLockGraph([]*Package{pkg}).Edges {
			if e.To == "netstate.cases.probe" {
				edges[strings.TrimPrefix(e.From, "netstate.cases.")] = true
			}
		}
		for lock, wantEdge := range map[string]bool{
			"sw":   false,
			"sel":  false,
			"selb": true,
			"ret":  false,
			"pan":  true,
			"def":  true,
			"loop": false,
		} {
			if edges[lock] != wantEdge {
				t.Errorf("%s -> probe: edge = %v, want %v", lock, edges[lock], wantEdge)
			}
		}
	})
}

// enclosingFunc names the function declaration of pkg spanning line.
func enclosingFunc(pkg *Package, line int) (name string) {
	forEachFunc([]*Package{pkg}, func(_ *Package, fd *ast.FuncDecl) {
		if pkg.Fset.Position(fd.Pos()).Line <= line && line <= pkg.Fset.Position(fd.End()).Line {
			name = fd.Name.Name
		}
	})
	return name
}
