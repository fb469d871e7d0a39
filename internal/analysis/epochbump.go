package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// EpochBump enforces the netstate epoch-invalidation contract at the
// source level. Two rules:
//
//  1. Write containment: any assignment to a cache-relevant field —
//     topology node/link/liveness state, controller policy/rate/load
//     state, cluster allocation state — outside the blessed mutator set
//     below is an error. The pair-route cache (PR 3) and the liveness
//     layer (PR 4) are only correct because every such mutation flows
//     through a setter that bumps the matching version counter; a stray
//     `t.alive[i] = false` serves stale routes until the next unrelated
//     bump.
//
//  2. Bump proof: every blessed mutator that is not construction-exempt
//     must be proven — by abstract interpretation over the module call
//     graph — to bump an epoch counter (Topology.version,
//     Topology.liveVersion or Oracle.epoch, directly or via a callee such
//     as Oracle.BumpEpoch) on EVERY path that performs a monitored write.
//     Paths that return without writing (validation failures, no-op
//     flips) carry no obligation; paths that write and return without a
//     bump are findings.
//
// The proof walks each function with a dirty flag: a monitored write sets
// it, a bump clears it, branches join pessimistically (either side dirty
// → dirty), loop bodies are walked twice, and calls apply the callee's
// memoized summary (cycles resolve optimistically). A mutator is reported
// when any exit — explicit return or fall-off, after deferred calls —
// can still be dirty. When the module contains decision-layer packages
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
	return "cache-relevant topology/controller/cluster fields may only be written by blessed mutators, which must bump an epoch on every mutating path"
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
	// Controller state mutations: each must end in Oracle.BumpEpoch.
	"controller.(Controller).Install":   {},
	"controller.(Controller).Uninstall": {},
	"controller.(Controller).Reset":     {},
	// Cluster allocation bookkeeping (uncached; see exempt doc above).
	"cluster.(Cluster).SetServerCapacity": {exempt: true},
	"cluster.(Cluster).Place":             {exempt: true},
	"cluster.(Cluster).unplaceLocked":     {exempt: true},
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

	"controller.Controller.policies": true,
	"controller.Controller.rates":    true,
	"controller.Controller.load":     true,

	"cluster.serverState.capacity":   true,
	"cluster.serverState.used":       true,
	"cluster.serverState.containers": true,
	"cluster.Container.server":       true,
}

// ebEpochFields are the version counters whose increment constitutes a
// bump: a direct write/IncDec, or a sync/atomic mutation of the field.
var ebEpochFields = map[string]bool{
	"topology.Topology.version":     true,
	"topology.Topology.liveVersion": true,
	"netstate.Oracle.epoch":         true,
}

// ebAtomicMutators are the sync/atomic method names that modify the
// receiver; calling one on an epoch-counter field is a bump.
var ebAtomicMutators = map[string]bool{
	"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true,
}

// RunModule implements ModuleCheck.
func (EpochBump) RunModule(mp *ModulePass) {
	eng := &ebEngine{idx: mp.Index, memo: make(map[FuncKey]ebSummary), busy: make(map[FuncKey]bool)}

	// Rule 1: writes outside the blessed set.
	fieldKeys := make([]string, 0, len(mp.Index.Fields))
	for k := range mp.Index.Fields {
		fieldKeys = append(fieldKeys, k)
	}
	sort.Strings(fieldKeys)
	for _, k := range fieldKeys {
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
	var reachable map[FuncKey]bool
	rootsExist := false
	for _, p := range mp.Pkgs {
		if decisionPackages[p.Base()] {
			rootsExist = true
			break
		}
	}
	if rootsExist {
		reachable = mp.Index.ReachableFrom(func(p *Package) bool { return decisionPackages[p.Base()] })
	}
	funcKeys := make([]FuncKey, 0, len(mp.Index.Funcs))
	for k := range mp.Index.Funcs {
		funcKeys = append(funcKeys, k)
	}
	sort.Strings(funcKeys)
	for _, k := range funcKeys {
		rule, blessed := ebBlessed[shortKey(k)]
		if !blessed || rule.exempt {
			continue
		}
		if rootsExist && !reachable[k] {
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
// since function entry on this path.
type ebState struct{ dirty, bumped bool }

// ebJoin merges branch states pessimistically.
func ebJoin(a, b ebState) ebState {
	return ebState{dirty: a.dirty || b.dirty, bumped: a.bumped && b.bumped}
}

// ebSummary is a function's memoized effect: mayExitDirty = some exit can
// be dirty when entered clean; alwaysBumps = every exit has bumped.
type ebSummary struct{ mayExitDirty, alwaysBumps bool }

// apply folds a callee's summary into the caller's state.
func (st ebState) apply(sum ebSummary) ebState {
	return ebState{
		dirty:  (st.dirty && !sum.alwaysBumps) || sum.mayExitDirty,
		bumped: st.bumped || sum.alwaysBumps,
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
	if e.busy[key] {
		return ebSummary{}
	}
	info := e.idx.Func(key)
	if info == nil {
		return ebSummary{}
	}
	if rule, ok := ebBlessed[shortKey(key)]; ok && rule.exempt {
		e.memo[key] = ebSummary{}
		return ebSummary{}
	}
	e.busy[key] = true
	w := &ebWalk{eng: e, pkg: info.Pkg}
	final := w.stmts(info.Decl.Body.List, ebState{})
	w.exit(final)
	delete(e.busy, key)
	sum := ebSummary{alwaysBumps: true}
	for _, ex := range w.exits {
		if ex.dirty {
			sum.mayExitDirty = true
		}
		if !ex.bumped {
			sum.alwaysBumps = false
		}
	}
	e.memo[key] = sum
	return sum
}

// ebWalk interprets one function body.
type ebWalk struct {
	eng    *ebEngine
	pkg    *Package
	exits  []ebState
	defers []ebSummary // effects of defers registered so far, in order
}

// exit records a function exit, applying the defers registered up to this
// point (a deferred bump covers every later return).
func (w *ebWalk) exit(st ebState) {
	for _, d := range w.defers {
		st = st.apply(d)
	}
	w.exits = append(w.exits, st)
}

func (w *ebWalk) stmts(list []ast.Stmt, st ebState) ebState {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *ebWalk) stmt(s ast.Stmt, st ebState) ebState {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.exprEffects(r, st)
		}
		w.exit(st)
		return st
	case *ast.ExprStmt:
		return w.exprEffects(s.X, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			st = w.exprEffects(r, st)
		}
		for _, l := range s.Lhs {
			st = w.exprEffects(l, st)
			st = w.lvalue(l, st)
		}
		return st
	case *ast.IncDecStmt:
		st = w.exprEffects(s.X, st)
		return w.lvalue(s.X, st)
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			st = w.exprEffects(a, st)
		}
		w.defers = append(w.defers, w.callSummary(s.Call))
		return st
	case *ast.GoStmt:
		// Conservative: account the goroutine's effects at spawn point.
		return w.exprEffects(s.Call, st)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		st = w.exprEffects(s.Cond, st)
		then := w.stmts(s.Body.List, st)
		els := st
		if s.Else != nil {
			els = w.stmt(s.Else, st)
		}
		return ebJoin(then, els)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.exprEffects(s.Cond, st)
		}
		once := w.loopPass(s, st)
		twice := w.loopPass(s, once)
		return ebJoin(st, ebJoin(once, twice))
	case *ast.RangeStmt:
		st = w.exprEffects(s.X, st)
		once := w.stmts(s.Body.List, st)
		twice := w.stmts(s.Body.List, once)
		return ebJoin(st, ebJoin(once, twice))
	case *ast.SwitchStmt:
		return w.switchLike(s.Init, s.Tag, caseBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.TypeSwitchStmt:
		return w.switchLike(s.Init, nil, caseBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.SelectStmt:
		out := st // a select with no ready case blocks, but stay conservative
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			b := st
			if cc.Comm != nil {
				b = w.stmt(cc.Comm, b)
			}
			out = ebJoin(out, w.stmts(cc.Body, b))
		}
		return out
	case *ast.SendStmt:
		st = w.exprEffects(s.Chan, st)
		return w.exprEffects(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.exprEffects(v, st)
					}
				}
			}
		}
		return st
	default:
		return st
	}
}

func (w *ebWalk) loopPass(s *ast.ForStmt, st ebState) ebState {
	st = w.stmts(s.Body.List, st)
	if s.Post != nil {
		st = w.stmt(s.Post, st)
	}
	if s.Cond != nil {
		st = w.exprEffects(s.Cond, st)
	}
	return st
}

func (w *ebWalk) switchLike(init ast.Stmt, tag ast.Expr, bodies [][]ast.Stmt, hasDefault bool, st ebState) ebState {
	if init != nil {
		st = w.stmt(init, st)
	}
	if tag != nil {
		st = w.exprEffects(tag, st)
	}
	out := st
	first := !hasDefault // without a default, falling past every case is a path
	for _, body := range bodies {
		b := w.stmts(body, st)
		if first && hasDefault {
			out = b
			first = false
			continue
		}
		out = ebJoin(out, b)
	}
	return out
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// exprEffects applies the effects of every call embedded in e (skipping
// function literals, whose bodies run only when invoked) and of delete()
// on monitored maps.
func (w *ebWalk) exprEffects(e ast.Expr, st ebState) ebState {
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
		if w.callBumps(call) {
			st.bumped, st.dirty = true, false
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && isBuiltinIdent(w.pkg, id) {
			if len(call.Args) > 0 {
				st = w.lvalue(call.Args[0], st)
			}
			return true
		}
		st = st.apply(w.eng.summary(resolveCall(w.pkg, call)))
		return true
	})
	return st
}

// lvalue applies the write effect of assigning through e: every monitored
// field on the selector spine dirties the state; every epoch-counter
// field bumps it.
func (w *ebWalk) lvalue(e ast.Expr, st ebState) ebState {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if owner, field := fieldOf(w.pkg, x); field != nil {
				key := shortKey(fieldAccessKey(owner, field))
				if ebEpochFields[key] {
					st.bumped, st.dirty = true, false
				} else if ebMonitored[key] {
					st.dirty = true
				}
			}
			e = x.X
		default:
			return st
		}
	}
}

// callSummary resolves the effect of a (possibly deferred) call: a direct
// epoch-field mutation, a known callee's summary, or an inline literal's
// body interpreted as its own function.
func (w *ebWalk) callSummary(call *ast.CallExpr) ebSummary {
	if w.callBumps(call) {
		return ebSummary{alwaysBumps: true}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		sub := &ebWalk{eng: w.eng, pkg: w.pkg}
		final := sub.stmts(lit.Body.List, ebState{})
		sub.exit(final)
		sum := ebSummary{alwaysBumps: true}
		for _, ex := range sub.exits {
			if ex.dirty {
				sum.mayExitDirty = true
			}
			if !ex.bumped {
				sum.alwaysBumps = false
			}
		}
		return sum
	}
	return w.eng.summary(resolveCall(w.pkg, call))
}

// callBumps recognizes a direct epoch bump: a mutating sync/atomic method
// on an epoch-counter field (o.epoch.Add(1)) or an epoch-counter field's
// address passed to a sync/atomic function.
func (w *ebWalk) callBumps(call *ast.CallExpr) bool {
	if mSel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && ebAtomicMutators[mSel.Sel.Name] {
		if recvSel, ok := ast.Unparen(mSel.X).(*ast.SelectorExpr); ok && isAtomicType(w.pkg.Info.TypeOf(recvSel)) {
			if owner, field := fieldOf(w.pkg, recvSel); field != nil {
				if ebEpochFields[shortKey(fieldAccessKey(owner, field))] {
					return true
				}
			}
		}
	}
	if isAtomicPkgFunc(w.pkg, call.Fun) {
		for _, arg := range call.Args {
			if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr); ok {
					if owner, field := fieldOf(w.pkg, sel); field != nil {
						if ebEpochFields[shortKey(fieldAccessKey(owner, field))] {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// isBuiltinIdent reports whether id resolves to a Go builtin.
func isBuiltinIdent(p *Package, id *ast.Ident) bool {
	_, ok := p.Info.Uses[id].(*types.Builtin)
	return ok
}

// shortKey trims the import-path directory from an index key, leaving the
// package-base-qualified form both the real module and fixtures share:
// "repro/internal/topology.(Topology).SetNodeAlive" and
// "fixture/topology.(Topology).SetNodeAlive" both shorten to
// "topology.(Topology).SetNodeAlive". Field keys shorten the same way.
func shortKey(key string) string { return pkgPathBase(key) }
