package analysis

import (
	"go/ast"
)

// EpochBump enforces the topology's version contract at the source
// level. Two rules:
//
//  1. Write containment: any assignment to a cache-relevant field —
//     topology node/link/liveness state, cluster allocation state —
//     outside the blessed mutator set below is an error. The netstate
//     oracle's liveness contract and the controller's capacity bound are
//     only correct because every such mutation flows through a setter
//     that bumps the matching version counter; a stray
//     `t.alive[i] = false` serves stale routes until the next unrelated
//     bump.
//
//  2. Bump proof: every blessed mutator that is not construction-exempt
//     must be proven — by abstract interpretation over the module call
//     graph — to bump a version counter (Topology.version or
//     Topology.liveVersion, directly or via a callee) on EVERY path that
//     performs a monitored write.
//     Paths that return without writing (validation failures, no-op
//     flips) carry no obligation; paths that write and return without a
//     bump are findings.
//
// The proof walks each function on the shared path walker (flow.go) with
// a dirty flag: a monitored write sets it, a bump clears it, branches
// join pessimistically (either side dirty → dirty), and calls apply the
// callee's memoized summary (cycles resolve optimistically). A mutator is
// reported when any exit — return, panic or fall-off, after the defers
// registered on its path — can still be dirty. When the module contains decision-layer packages
// (scheduler, sim, ...) the obligation is scoped to mutators reachable
// from them over the call graph; in isolated fixtures every blessed
// mutator is obligated.
//
// Unresolved calls (interface dispatch, function values, stdlib) are
// assumed to neither write nor bump. That is sound for rule 1 because
// every monitored field is unexported: only the declaring package can
// write it, and every function of a loaded package is in the index.
type EpochBump struct{}

// Name implements Check.
func (EpochBump) Name() string { return "epochbump" }

// Doc implements Check.
func (EpochBump) Doc() string {
	return "cache-relevant topology/cluster fields may only be written by blessed mutators, which must bump an epoch on every mutating path"
}

// ebRule describes one blessed mutator.
type ebRule struct {
	// exempt marks construction-time writers (Builder methods, cluster
	// allocation bookkeeping): free to write, no bump obligation, and
	// their summaries are forced clean so constructors reached through
	// them (NewTree, New, ...) do not propagate dirt to callers. Cluster
	// state is exempt as a class because it is re-read on every decision,
	// never epoch-cached.
	exempt bool
}

// ebBlessed is the blessed mutator set, keyed by package-base-qualified
// function key (see shortKey) so fixtures under "fixture/topology" are
// held to the same contract as "repro/internal/topology". This list is
// the single source of truth documented in DESIGN.md §6.1.
var ebBlessed = map[string]ebRule{
	// Parameter and liveness setters: the epoch contract proper.
	"topology.(Topology).SetSwitchCapacity": {},
	"topology.(Topology).SetLinkBandwidth":  {},
	"topology.(Topology).SetNodeAlive":      {},
	// Graph construction: structure is immutable after Build, so builder
	// writes precede any cache and need no bump.
	"topology.(Builder).AddServer": {exempt: true},
	"topology.(Builder).AddSwitch": {exempt: true},
	"topology.(Builder).Connect":   {exempt: true},
	"topology.(Builder).Build":     {exempt: true},
	// Cluster allocation bookkeeping (uncached; see exempt doc above).
	"cluster.(Cluster).SetServerCapacity": {exempt: true},
	"cluster.(Cluster).Place":             {exempt: true},
	"cluster.(Cluster).unplace":           {exempt: true},
}

// ebMonitored is the cache-relevant field set, keyed by
// package-base-qualified field key ("topology.Topology.alive").
// Deliberately absent: Topology.dist (a cache itself, cleared by
// SetNodeAlive) and the epoch counters (writes to those ARE the bumps).
var ebMonitored = map[string]bool{
	"topology.Topology.nodes":    true,
	"topology.Topology.links":    true,
	"topology.Topology.adj":      true,
	"topology.Topology.linkIdx":  true,
	"topology.Topology.servers":  true,
	"topology.Topology.switches": true,
	"topology.Topology.alive":    true,
	"topology.Topology.numDead":  true,

	"cluster.serverState.capacity":   true,
	"cluster.serverState.used":       true,
	"cluster.serverState.containers": true,
	"cluster.Container.server":       true,
}

// ebEpochFields are the version counters whose increment (a write or
// IncDec) constitutes a bump.
var ebEpochFields = map[string]bool{
	"topology.Topology.version":     true,
	"topology.Topology.liveVersion": true,
}

// RunModule implements ModuleCheck.
func (EpochBump) RunModule(mp *ModulePass) {
	eng := &ebEngine{idx: mp.Index, memo: make(map[FuncKey]ebSummary), busy: make(map[FuncKey]bool)}

	// Rule 1: writes outside the blessed set.
	for _, k := range sortedKeys(mp.Index.Fields) {
		if !ebMonitored[shortKey(k)] {
			continue
		}
		for _, a := range mp.Index.Fields[k] {
			if !a.Write {
				continue
			}
			if _, blessed := ebBlessed[shortKey(a.Fn)]; blessed {
				continue
			}
			mp.Reportf(a.Pkg, a.Pos,
				"write to cache-relevant field %s outside the blessed mutator set; route the mutation through a blessed setter (see epochbump.go)",
				shortKey(k))
		}
	}

	// Rule 2: bump proof for obligated mutators. When decision-layer
	// packages are present the obligation follows call-graph reachability
	// from them; otherwise (fixtures) every blessed mutator is obligated.
	rootsExist := false
	for _, p := range mp.Pkgs {
		rootsExist = rootsExist || decisionPackages[p.Base()]
	}
	funcKeys := sortedKeys(mp.Index.Funcs)
	var seeds []floodSeed
	for _, k := range funcKeys {
		if decisionPackages[mp.Index.Funcs[k].Pkg.Base()] {
			seeds = append(seeds, floodSeed{fn: k})
		}
	}
	_, reachable := mp.Index.flood(seeds)
	for _, k := range funcKeys {
		rule, blessed := ebBlessed[shortKey(k)]
		if !blessed || rule.exempt {
			continue
		}
		if _, ok := reachable[k]; rootsExist && !ok {
			continue
		}
		info := mp.Index.Funcs[k]
		if sum := eng.summary(k); sum.mayExitDirty {
			mp.Reportf(info.Pkg, info.Decl.Name.Pos(),
				"blessed mutator %s can return with cache-relevant state written but no epoch bump on some path",
				info.Decl.Name.Name)
		}
	}
}

// ebState is the abstract state at one program point: dirty = a monitored
// write has happened with no bump since; bumped = a bump has happened
// since function entry on this path; defers = the effect of the defers
// registered on this path, in the order they will run.
type ebState struct {
	dirty, bumped bool
	defers        ebSummary
}

// ebSummary is a function's memoized effect: mayExitDirty = some exit can
// be dirty when entered clean; alwaysBumps = every exit has bumped. The
// zero summary has no effect.
type ebSummary struct{ mayExitDirty, alwaysBumps bool }

// apply folds a callee's summary into the caller's state.
func (st ebState) apply(sum ebSummary) ebState {
	st.dirty = (st.dirty && !sum.alwaysBumps) || sum.mayExitDirty
	st.bumped = st.bumped || sum.alwaysBumps
	return st
}

// then is the effect of running a and then b.
func (a ebSummary) then(b ebSummary) ebSummary {
	return ebSummary{
		mayExitDirty: (a.mayExitDirty && !b.alwaysBumps) || b.mayExitDirty,
		alwaysBumps:  a.alwaysBumps || b.alwaysBumps,
	}
}

// join is the effect of running a or b: pessimistic, and exact for apply.
func (a ebSummary) join(b ebSummary) ebSummary {
	return ebSummary{
		mayExitDirty: a.mayExitDirty || b.mayExitDirty,
		alwaysBumps:  a.alwaysBumps && b.alwaysBumps,
	}
}

type ebEngine struct {
	idx  *Index
	memo map[FuncKey]ebSummary
	busy map[FuncKey]bool
}

// summary computes (and memoizes) a function's effect summary. Unknown
// and in-progress (cyclic) callees resolve to the neutral summary.
func (e *ebEngine) summary(key FuncKey) ebSummary {
	if key == "" {
		return ebSummary{}
	}
	if s, ok := e.memo[key]; ok {
		return s
	}
	info := e.idx.Func(key)
	if e.busy[key] || info == nil {
		return ebSummary{}
	}
	if rule, ok := ebBlessed[shortKey(key)]; ok && rule.exempt {
		e.memo[key] = ebSummary{}
		return ebSummary{}
	}
	e.busy[key] = true
	sum := e.bodySummary(info.Pkg, info.Decl.Body)
	delete(e.busy, key)
	e.memo[key] = sum
	return sum
}

// bodySummary walks one function body from a clean entry state and folds
// its exits into a summary.
func (e *ebEngine) bodySummary(pkg *Package, body *ast.BlockStmt) ebSummary {
	w := &ebWalk{eng: e, pkg: pkg}
	walkBody(pkg, w, body, ebState{})
	sum := ebSummary{alwaysBumps: true}
	for _, ex := range w.exits {
		sum = sum.join(ebSummary{mayExitDirty: ex.dirty, alwaysBumps: ex.bumped})
	}
	return sum
}

// ebWalk is epochbump's transfer over the shared path walker.
type ebWalk struct {
	eng   *ebEngine
	pkg   *Package
	exits []ebState
}

func (w *ebWalk) copy(st ebState) ebState { return st }

func (w *ebWalk) join(a, b ebState) ebState {
	return ebState{dirty: a.dirty || b.dirty, bumped: a.bumped && b.bumped, defers: a.defers.join(b.defers)}
}

// exit records a function exit after running the defers registered on
// its path (a deferred bump covers every later exit).
func (w *ebWalk) exit(st ebState) { w.exits = append(w.exits, st.apply(st.defers)) }

func (w *ebWalk) stmt(s ast.Stmt, st ebState) ebState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			st = w.expr(r, st)
		}
		for _, l := range s.Lhs {
			st = w.lvalue(l, w.expr(l, st))
		}
	case *ast.IncDecStmt:
		return w.lvalue(s.X, w.expr(s.X, st))
	case *ast.GoStmt:
		// Conservative: account the goroutine's effects at spawn point.
		return w.expr(s.Call, st)
	case *ast.SendStmt:
		return w.expr(s.Value, w.expr(s.Chan, st))
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.expr(v, st)
					}
				}
			}
		}
	}
	return st
}

// deferred evaluates the deferred call's arguments now and registers its
// effect to run, before the defers registered earlier, at every exit of
// this path.
func (w *ebWalk) deferred(d *ast.DeferStmt, st ebState) ebState {
	for _, a := range d.Call.Args {
		st = w.expr(a, st)
	}
	st.defers = w.callSummary(d.Call).then(st.defers)
	return st
}

// expr applies the effects of every call embedded in e (skipping
// function literals, whose bodies run only when invoked) and of delete()
// on monitored maps.
func (w *ebWalk) expr(e ast.Expr, st ebState) ebState {
	if e == nil {
		return st
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if builtinName(w.pkg, call.Fun) == "delete" {
			if len(call.Args) > 0 {
				st = w.lvalue(call.Args[0], st)
			}
		} else {
			st = st.apply(w.eng.summary(resolveCall(w.pkg, call)))
		}
		return true
	})
	return st
}

// lvalue applies the write effect of assigning through e: every monitored
// field on the spine dirties the state; every epoch-counter field bumps
// it.
func (w *ebWalk) lvalue(e ast.Expr, st ebState) ebState {
	for _, x := range spineOf(w.pkg, e).fields() {
		if key := fieldKey(w.pkg, x); ebEpochFields[key] {
			st.bumped, st.dirty = true, false
		} else if ebMonitored[key] {
			st.dirty = true
		}
	}
	return st
}

// callSummary resolves the effect of a deferred call: a known callee's
// summary, or an inline literal's body interpreted as its own function.
func (w *ebWalk) callSummary(call *ast.CallExpr) ebSummary {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return w.eng.bodySummary(w.pkg, lit.Body)
	}
	return w.eng.summary(resolveCall(w.pkg, call))
}
