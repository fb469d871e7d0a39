package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// lockorder: the static lock-acquisition graph over every sync.Mutex and
// sync.RWMutex owned by the concurrent packages (loPackages) must be
// acyclic.
//
// The netstate oracle supports concurrent readers, so its six lock domains
// and the pair-route shard stripes can be taken from several goroutines at
// once. Deadlock freedom for plain mutexes reduces to one global property
// — there is a total order on locks such that every nested acquisition
// respects it. This check computes the "acquired-while-held" relation
// statically and fails on any cycle, so an inverted nesting (pairMu inside
// typeMu here, typeMu inside pairMu there) is caught at lint time instead
// of as a once-a-week hang under -race.
//
// Graph construction, per declared function (and separately per
// goroutine-launched literal, which starts with an empty held set):
//
//   - X.Lock() / X.RLock() on a tracked lock L with H held adds edge
//     H -> L. Read and write acquisition collapse onto one node: a
//     cycle through an RLock is still a deadlock once any writer queues
//     (sync.RWMutex writer preference).
//   - X.Unlock() / X.RUnlock() releases; `defer X.Unlock()` keeps L
//     held to the end of the function, which is exactly its dynamic
//     extent for nesting purposes.
//   - A statically resolved call made with H held adds H -> A for every
//     lock A in the callee's TRANSITIVE acquire set (fixed-pointed over
//     the call graph), so ensureLive -> clearPairRoutes -> shard locks
//     is one edge chain, not an escape hatch. *Locked-suffix helpers
//     need no special casing: they acquire nothing, so they contribute
//     no edges — the convention is enforced by construction.
//   - Code that runs on ANOTHER goroutine — `go` statements and
//     function literals handed to the pool entry points
//     (poolEntrypoints) — is excluded from the launcher's walk and
//     walked as its own root instead: holding H while STARTING a
//     goroutine that takes L is not nesting.
//
// The held set rides the shared path walker (flow.go): branch joins are
// unions, so an edge on some path is an edge. Dynamic calls
// (function values, interface methods) contribute no edges — the
// fail-safe stance of every index-based check — so callback fields like
// netstate.Oracle.load carry a contract annotation at the declaration
// instead: callbacks must not re-enter the oracle's locking API.
//
// The graph itself is exported (BuildLockGraph / LockGraph.WriteDOT)
// for taalint's -lockgraph flag, so the proven order ships as a CI
// artifact next to the findings.

// loPackages are the package bases whose mutex fields and package-level
// mutex vars are tracked lock nodes.
var loPackages = map[string]bool{
	"netstate":   true,
	"controller": true,
}

// LockEdge is one acquired-while-held edge of the lock graph: To was
// acquired (directly or through the static call graph) while From was
// held, first observed in function Fn.
type LockEdge struct {
	From, To string
	Fn       string // shortKey of the function whose walk produced the edge
	Pkg      *Package
	Pos      token.Pos
}

// LockGraph is the module's static lock-acquisition graph. Nodes is the
// full tracked-lock inventory (acquired or not, so an unused lock still
// shows up in the DOT artifact); Edges is deduplicated by (From, To)
// keeping the first edge in deterministic walk order.
type LockGraph struct {
	Nodes []string
	Edges []LockEdge
}

// BuildLockGraph builds the lock graph over the given packages. The
// lockorder check itself reuses the module pass's shared index; this
// entry point exists for cmd/taalint's -lockgraph flag.
func BuildLockGraph(pkgs []*Package) *LockGraph {
	return buildLockGraph(BuildIndex(pkgs))
}

// WriteDOT renders the graph as deterministic Graphviz source: nodes
// sorted, edges sorted by (From, To), each edge labeled with the
// function that nests the pair.
func (g *LockGraph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	nodes := append([]string(nil), g.Nodes...)
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	edges := append([]LockEdge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From, e.To, e.Fn)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// LockOrder is the deadlock-freedom check.
type LockOrder struct{}

// Name implements Check.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Check.
func (LockOrder) Doc() string {
	return "the static lock-acquisition graph over netstate/controller mutexes must be acyclic"
}

// RunModule implements ModuleCheck.
func (LockOrder) RunModule(mp *ModulePass) {
	g := buildLockGraph(mp.Index)

	// Cycle detection: every strongly connected component of two or
	// more locks is a deadlock-capable cycle; every in-component edge is
	// reported at its acquisition site so the fix (pick one order) is
	// visible at each offending nesting.
	for _, scc := range lockCycles(g) {
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		cycle := strings.Join(scc, " -> ") + " -> " + scc[0]
		for _, e := range g.Edges {
			if inSCC[e.From] && inSCC[e.To] {
				mp.Reportf(e.Pkg, e.Pos,
					"%s acquires %s while holding %s, completing the lock cycle %s; acquire locks in one global order everywhere",
					e.Fn, e.To, e.From, cycle)
			}
		}
	}
}

// loLockKey resolves the receiver expression of a Lock/Unlock call to
// its tracked-node key ("pkg.Struct.field" for fields, "pkg.var" for
// package-level vars), or "" when untracked. Stripe locks (an array or
// slice of shards each carrying a mutex) collapse onto one node: the
// field key ignores the index, which is what a global stripe order
// means.
func loLockKey(pkg *Package, recv ast.Expr) string {
	if !isMutexType(pkg.Info.TypeOf(recv)) {
		return ""
	}
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		key := fieldKey(pkg, x) // "netstate.Oracle.pairMu"
		if base, _, _ := strings.Cut(key, "."); loPackages[base] {
			return key
		}
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(x)
		if v, ok := obj.(*types.Var); ok && v.Parent() == pkg.Pkg.Scope() {
			if loPackages[pkg.Base()] {
				return pkg.Base() + "." + v.Name()
			}
		}
	}
	return ""
}

// loEvent is one lock-relevant action in source order inside a
// statement: an acquisition, a release, or a resolved call (whose
// transitive acquires matter).
type loEvent struct {
	kind   int // 0 acquire, 1 release, 2 call
	lock   string
	callee FuncKey
	pos    token.Pos
}

const (
	loAcquire = iota
	loRelease
	loCall
)

// loLockCall classifies a call expression as Lock/RLock (acquire) or
// Unlock/RUnlock (release) on a tracked lock.
func loLockCall(pkg *Package, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	key = loLockKey(pkg, sel.X)
	return key, acquire, key != ""
}

// loScan collects the ordered lock events under n, excluding subtrees
// that run on other goroutines (queued on workers instead, for their
// own root walks): go-statement literals and function literals passed
// to the pool entry points. Function literals invoked synchronously
// (Once.Do, deferred closures) are walked inline.
// When releases is false, release events are dropped — the
// deferred-unlock semantics: a lock released only by a defer stays held
// to the end of the function.
func loScan(pkg *Package, n ast.Node, releases bool, workers *[]*ast.FuncLit) []loEvent {
	var events []loEvent
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.GoStmt:
			// The callee runs on another goroutine: no acquire/call
			// events for the launcher. A literal body becomes its own
			// walk root; a named callee is already walked as a
			// declaration root.
			if fl, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok && workers != nil {
				*workers = append(*workers, fl)
			}
			return false
		case *ast.CallExpr:
			if key, acquire, ok := loLockCall(pkg, x); ok {
				if acquire {
					events = append(events, loEvent{kind: loAcquire, lock: key, pos: x.Pos()})
				} else if releases {
					events = append(events, loEvent{kind: loRelease, lock: key, pos: x.Pos()})
				}
				return true
			}
			callee := resolveCall(pkg, x)
			if callee != "" {
				events = append(events, loEvent{kind: loCall, callee: callee, pos: x.Pos()})
			}
			if poolEntrypoints[shortKey(callee)] {
				// The literal arguments run on pool worker goroutines:
				// queue them as roots and walk only the other args.
				for _, a := range x.Args {
					if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
						if workers != nil {
							*workers = append(*workers, fl)
						}
					} else {
						events = append(events, loScan(pkg, a, releases, workers)...)
					}
				}
				return false
			}
		}
		return true
	})
	return events
}

// buildLockGraph runs the three passes: node inventory, per-function
// transitive-acquire closure, and the held-set edge walk.
func buildLockGraph(idx *Index) *LockGraph {
	g := &LockGraph{}
	nodeSeen := make(map[string]bool)
	addNode := func(key string) {
		if key != "" && !nodeSeen[key] {
			nodeSeen[key] = true
			g.Nodes = append(g.Nodes, key)
		}
	}

	// Pass 1: tracked-lock inventory from package-level declarations, so
	// locks nobody nests (or even acquires) still appear in the DOT
	// artifact.
	for _, pkg := range idx.Pkgs {
		if !loPackages[pkg.Base()] {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				if isMutexType(obj.Type()) {
					addNode(pkg.Base() + "." + name)
				}
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				for i := 0; ok && i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() && isMutexType(f.Type()) {
						addNode(pkg.Base() + "." + name + "." + f.Name())
					}
				}
			}
		}
	}

	// Pass 2: per-function direct acquires and same-goroutine callees,
	// closed over the call graph into transitive acquire sets.
	trans := make(map[FuncKey]map[string]bool, len(idx.Funcs))
	callees := make(map[FuncKey][]FuncKey, len(idx.Funcs))
	for key, info := range idx.Funcs {
		trans[key] = make(map[string]bool)
		for _, ev := range loScan(info.Pkg, info.Decl.Body, true, nil) {
			switch ev.kind {
			case loAcquire:
				trans[key][ev.lock] = true
			case loCall:
				callees[key] = append(callees[key], ev.callee)
			}
		}
	}
	closeSets(trans, callees)

	// Pass 3: the held-set walk, per declared function and per
	// goroutine-launched literal (fresh empty held set: the launcher's
	// held locks are not held on the worker).
	edgeSeen := make(map[string]bool)
	w := &loWalk{trans: trans, addEdge: func(pkg *Package, fn, from, to string, pos token.Pos) {
		if from == to {
			// Same-node re-acquisition is stripe iteration (shard[i].mu
			// after shard[i-1].mu released) or recursion, not an order
			// violation between two locks.
			return
		}
		k := from + "\x00" + to
		if edgeSeen[k] {
			return
		}
		edgeSeen[k] = true
		addNode(from)
		addNode(to)
		g.Edges = append(g.Edges, LockEdge{From: from, To: to, Fn: fn, Pkg: pkg, Pos: pos})
	}}
	forEachFunc(idx.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		w.pkg, w.fn, w.workers = pkg, shortKey(declKey(pkg, fd)), nil
		roots := []*ast.BlockStmt{fd.Body}
		for i := 0; i < len(roots); i++ {
			walkBody(pkg, w, roots[i], make(map[string]bool))
			for _, fl := range w.workers {
				roots = append(roots, fl.Body)
			}
			w.workers = nil
		}
	})
	return g
}

// loWalk is lockorder's transfer over the shared path walker: the state
// is the set of locks held on the path, and every acquisition, or call
// that acquires transitively, adds an edge from each held lock. Worker
// literals found on the way are queued for their own root walks.
type loWalk struct {
	pkg     *Package
	fn      string // shortKey of the walked declaration, the edges' label
	trans   map[FuncKey]map[string]bool
	addEdge func(pkg *Package, fn, from, to string, pos token.Pos)
	workers []*ast.FuncLit
}

func (w *loWalk) copy(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k := range held {
		c[k] = true
	}
	return c
}

// join is a union: a lock held on any live path may be held afterwards,
// the right over-approximation for a may-nest edge relation.
func (w *loWalk) join(a, b map[string]bool) map[string]bool {
	for k := range b {
		a[k] = true
	}
	return a
}

func (w *loWalk) exit(map[string]bool) {}

func (w *loWalk) stmt(s ast.Stmt, held map[string]bool) map[string]bool {
	return w.apply(loScan(w.pkg, s, true, &w.workers), held)
}

func (w *loWalk) expr(e ast.Expr, held map[string]bool) map[string]bool {
	return w.apply(loScan(w.pkg, e, true, &w.workers), held)
}

// deferred drops the deferred releases (the lock stays held to the end
// of the function) and applies deferred acquires and calls with the held
// set at registration — conservative, and exact for the ubiquitous
// `defer mu.Unlock()`.
func (w *loWalk) deferred(d *ast.DeferStmt, held map[string]bool) map[string]bool {
	return w.apply(loScan(w.pkg, d, false, &w.workers), held)
}

func (w *loWalk) apply(events []loEvent, held map[string]bool) map[string]bool {
	for _, ev := range events {
		switch ev.kind {
		case loAcquire:
			for _, h := range sortedKeys(held) {
				w.addEdge(w.pkg, w.fn, h, ev.lock, ev.pos)
			}
			held[ev.lock] = true
		case loRelease:
			delete(held, ev.lock)
		case loCall:
			if len(held) == 0 {
				continue
			}
			acq := sortedKeys(w.trans[ev.callee])
			for _, h := range sortedKeys(held) {
				for _, a := range acq {
					w.addEdge(w.pkg, w.fn, h, a, ev.pos)
				}
			}
		}
	}
	return held
}

// lockCycles returns the graph's cycles: its strongly connected
// components of two or more locks, each sorted, ordered by first member.
func lockCycles(g *LockGraph) [][]string {
	adj := make(map[string][]string)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	reach := func(from string) map[string]bool {
		seen := make(map[string]bool)
		for stack := []string{from}; len(stack) > 0; {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return seen
	}
	var cycles [][]string
	inCycle := make(map[string]bool)
	for _, n := range sortedKeys(adj) {
		if inCycle[n] {
			continue
		}
		r := reach(n)
		if !r[n] {
			continue // on no cycle (no edge loops on one lock)
		}
		var scc []string
		for _, m := range sortedKeys(r) {
			if reach(m)[n] {
				scc = append(scc, m)
				inCycle[m] = true
			}
		}
		cycles = append(cycles, scc)
	}
	return cycles
}
