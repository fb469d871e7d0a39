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
// Branch joins are unions (an edge on some path is an edge), loop
// bodies are walked twice, returns terminate a path. Dynamic calls
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

	// Cycle detection: strongly connected components over the edge set.
	// Any SCC with two or more members is a deadlock-capable cycle;
	// every in-SCC edge is reported at its acquisition site so the fix
	// (pick one order) is visible at each offending nesting.
	for _, scc := range lockSCCs(g) {
		if len(scc) < 2 {
			continue
		}
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

// loMutexType reports whether t is sync.Mutex or sync.RWMutex.
func loMutexType(t types.Type) bool {
	named, ok := derefType(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// loLockKey resolves the receiver expression of a Lock/Unlock call to
// its tracked-node key ("pkg.Struct.field" for fields, "pkg.var" for
// package-level vars), or "" when untracked. Stripe locks (an array or
// slice of shards each carrying a mutex) collapse onto one node: the
// field key ignores the index, which is what a global stripe order
// means.
func loLockKey(pkg *Package, recv ast.Expr) string {
	if !loMutexType(pkg.Info.TypeOf(recv)) {
		return ""
	}
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		owner, field := fieldOf(pkg, x)
		if field == nil {
			return ""
		}
		key := shortKey(fieldAccessKey(owner, field)) // "netstate.Oracle.pairMu"
		if loPackages[keyPkgBase(key)] {
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
	if key == "" {
		return "", false, false
	}
	return key, acquire, true
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

// loFuncSummary is the per-function substrate of the transitive-acquire
// fixpoint.
type loFuncSummary struct {
	acquires map[string]bool // direct acquisitions on this goroutine
	callees  []FuncKey
	trans    map[string]bool // closed over the call graph
}

// buildLockGraph runs the three passes: node inventory, per-function
// transitive-acquire fixpoint, and the held-set edge walk.
func buildLockGraph(idx *Index) *LockGraph {
	g := &LockGraph{}
	nodeSeen := make(map[string]bool)
	addNode := func(key string) {
		if key != "" && !nodeSeen[key] {
			nodeSeen[key] = true
			g.Nodes = append(g.Nodes, key)
		}
	}

	// Pass 1: tracked-lock inventory from declarations, so locks nobody
	// nests (or even acquires) still appear in the DOT artifact.
	for _, pkg := range idx.Pkgs {
		if !loPackages[pkg.Base()] {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							if !loMutexType(pkg.Info.TypeOf(fld.Type)) {
								continue
							}
							for _, name := range fld.Names {
								addNode(pkg.Base() + "." + s.Name.Name + "." + name.Name)
							}
						}
					case *ast.ValueSpec:
						if gd.Tok != token.VAR {
							continue
						}
						for _, name := range s.Names {
							if obj := pkg.Info.Defs[name]; obj != nil && loMutexType(obj.Type()) {
								addNode(pkg.Base() + "." + name.Name)
							}
						}
					}
				}
			}
		}
	}

	// Pass 2: per-function direct acquires and same-goroutine callees,
	// then the transitive fixpoint.
	sums := make(map[FuncKey]*loFuncSummary, len(idx.Funcs))
	for key, info := range idx.Funcs {
		sum := &loFuncSummary{acquires: make(map[string]bool)}
		for _, ev := range loScan(info.Pkg, info.Decl.Body, true, nil) {
			switch ev.kind {
			case loAcquire:
				sum.acquires[ev.lock] = true
			case loCall:
				sum.callees = append(sum.callees, ev.callee)
			}
		}
		sums[key] = sum
	}
	keys := make([]FuncKey, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sum := sums[k]
		sum.trans = make(map[string]bool, len(sum.acquires))
		for l := range sum.acquires {
			sum.trans[l] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			sum := sums[k]
			for _, c := range sum.callees {
				callee := sums[c]
				if callee == nil {
					continue // dynamic or external: assumed lock-free
				}
				for l := range callee.trans {
					if !sum.trans[l] {
						sum.trans[l] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: the held-set walk, per declared function and per
	// goroutine-launched literal (fresh empty held set: the launcher's
	// held locks are not held on the worker).
	edgeSeen := make(map[string]bool)
	addEdge := func(pkg *Package, fn, from, to string, pos token.Pos) {
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
	}

	for _, pkg := range idx.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := shortKey(declKey(pkg, fd))
				roots := []*ast.BlockStmt{fd.Body}
				for i := 0; i < len(roots); i++ {
					var workers []*ast.FuncLit
					loWalkRoot(pkg, fn, roots[i], sums, addEdge, &workers)
					for _, w := range workers {
						roots = append(roots, w.Body)
					}
				}
			}
		}
	}
	return g
}

// loState is the walker's path state: the set of locks held on the
// current path, and whether the path has terminated (returned).
type loState struct {
	held       map[string]bool
	terminated bool
}

func loClone(s *loState) *loState {
	c := &loState{held: make(map[string]bool, len(s.held)), terminated: s.terminated}
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

// loJoin folds branch states back into dst as a union: a lock held on
// any surviving (non-terminated) path may be held afterwards, which is
// the right over-approximation for a may-nest edge relation. When every
// branch terminated, so has dst.
func loJoin(dst *loState, srcs ...*loState) {
	live := 0
	union := make(map[string]bool)
	for _, s := range srcs {
		if s.terminated {
			continue
		}
		live++
		for k := range s.held {
			union[k] = true
		}
	}
	if live == 0 {
		dst.terminated = true
		dst.held = make(map[string]bool)
		return
	}
	dst.held = union
}

// loWalkRoot walks one root body (a declaration or a worker literal)
// emitting acquired-while-held edges. Worker literals discovered inside
// are queued on workers for their own root walks.
func loWalkRoot(pkg *Package, fn string, body *ast.BlockStmt,
	sums map[FuncKey]*loFuncSummary,
	addEdge func(pkg *Package, fn, from, to string, pos token.Pos),
	workers *[]*ast.FuncLit) {

	heldSorted := func(st *loState) []string {
		hs := make([]string, 0, len(st.held))
		for h := range st.held {
			hs = append(hs, h)
		}
		sort.Strings(hs)
		return hs
	}

	apply := func(events []loEvent, st *loState) {
		for _, ev := range events {
			switch ev.kind {
			case loAcquire:
				for _, h := range heldSorted(st) {
					addEdge(pkg, fn, h, ev.lock, ev.pos)
				}
				st.held[ev.lock] = true
			case loRelease:
				delete(st.held, ev.lock)
			case loCall:
				callee := sums[ev.callee]
				if callee == nil || len(st.held) == 0 {
					continue
				}
				acq := make([]string, 0, len(callee.trans))
				for a := range callee.trans {
					acq = append(acq, a)
				}
				sort.Strings(acq)
				for _, h := range heldSorted(st) {
					for _, a := range acq {
						addEdge(pkg, fn, h, a, ev.pos)
					}
				}
			}
		}
	}

	var walk func(s ast.Stmt, st *loState)
	walkList := func(list []ast.Stmt, st *loState) {
		for _, s := range list {
			if st.terminated {
				return
			}
			walk(s, st)
		}
	}
	walk = func(s ast.Stmt, st *loState) {
		switch x := s.(type) {
		case *ast.BlockStmt:
			walkList(x.List, st)
		case *ast.LabeledStmt:
			walk(x.Stmt, st)
		case *ast.ReturnStmt:
			apply(loScan(pkg, x, true, workers), st)
			st.terminated = true
		case *ast.DeferStmt:
			// Deferred releases are dropped (the lock stays held to the
			// end of the function); deferred acquires and calls are
			// applied with the held set at registration — conservative,
			// and exact for the ubiquitous `defer mu.Unlock()`.
			apply(loScan(pkg, x, false, workers), st)
		case *ast.IfStmt:
			if x.Init != nil {
				walk(x.Init, st)
			}
			apply(loScan(pkg, x.Cond, true, workers), st)
			thenSt := loClone(st)
			walk(x.Body, thenSt)
			elseSt := loClone(st)
			if x.Else != nil {
				walk(x.Else, elseSt)
			}
			loJoin(st, thenSt, elseSt)
		case *ast.ForStmt:
			if x.Init != nil {
				walk(x.Init, st)
			}
			if x.Cond != nil {
				apply(loScan(pkg, x.Cond, true, workers), st)
			}
			for i := 0; i < 2; i++ {
				bodySt := loClone(st)
				walk(x.Body, bodySt)
				if x.Post != nil && !bodySt.terminated {
					walk(x.Post, bodySt)
				}
				loJoin(st, bodySt, loClone(st))
			}
		case *ast.RangeStmt:
			apply(loScan(pkg, x.X, true, workers), st)
			for i := 0; i < 2; i++ {
				bodySt := loClone(st)
				walk(x.Body, bodySt)
				loJoin(st, bodySt, loClone(st))
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var bodyList []ast.Stmt
			switch y := x.(type) {
			case *ast.SwitchStmt:
				if y.Init != nil {
					walk(y.Init, st)
				}
				if y.Tag != nil {
					apply(loScan(pkg, y.Tag, true, workers), st)
				}
				bodyList = y.Body.List
			case *ast.TypeSwitchStmt:
				if y.Init != nil {
					walk(y.Init, st)
				}
				bodyList = y.Body.List
			case *ast.SelectStmt:
				bodyList = y.Body.List
			}
			branches := []*loState{loClone(st)} // no-case-taken path
			for _, cc := range bodyList {
				br := loClone(st)
				switch c := cc.(type) {
				case *ast.CaseClause:
					walkList(c.Body, br)
				case *ast.CommClause:
					walkList(c.Body, br)
				}
				branches = append(branches, br)
			}
			loJoin(st, branches...)
		case *ast.GoStmt:
			apply(loScan(pkg, x, true, workers), st) // queues the worker, emits nothing
		default:
			apply(loScan(pkg, s, true, workers), st)
		}
	}

	st := &loState{held: make(map[string]bool)}
	walkList(body.List, st)
}

// lockSCCs returns the graph's strongly connected components (Tarjan),
// each sorted, the list sorted by first member — fully deterministic.
func lockSCCs(g *LockGraph) [][]string {
	adj := make(map[string][]string)
	nodes := append([]string(nil), g.Nodes...)
	inNodes := make(map[string]bool)
	for _, n := range nodes {
		inNodes[n] = true
	}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		for _, n := range []string{e.From, e.To} {
			if !inNodes[n] {
				inNodes[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		sort.Strings(adj[n])
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}
