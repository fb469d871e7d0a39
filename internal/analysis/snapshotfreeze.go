package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// snapshotfreeze: values obtained from the netstate oracle's blessed
// read API are frozen once they cross a goroutine boundary — a worker
// may read them forever, but a write through one is a data race against
// every other worker sharing the same cached slice.
//
// The oracle's read API (DistRow, ShortestPath, TypeTemplate,
// StagesForTemplate, ...) deliberately returns SHARED cache-resident
// slices — "callers must not modify" is in every doc comment, and the
// preference build's workers rely on it: the oracle has one owner and
// the workers never call it, but they read the rows fetched before the
// fan-out concurrently, so one worker writing a row corrupts every other
// worker's reads.
//
// Scope: code that runs on a worker goroutine — the body of every
// `go func(){...}`, every function literal passed to a pool entry point
// (poolEntrypoints: the internal/parallel fan-outs), every named `go`
// callee, and everything those reach through the static call graph.
//
// Within each analyzed declaration a flow-insensitive taint fixpoint
// tracks two flavors:
//
//   - shared: the object IS a reference into oracle-owned memory — the
//     result of a source call, a copy/alias of one, an element read out
//     of a holder, a re-slice, a view returned by a helper fed a shared
//     argument. append with a fresh first argument
//     (append([]T(nil), s...)) copies and therefore launders — it is
//     the blessed clone idiom. Scalar reads launder too (refLike).
//   - holds: a local container some shared reference was stored into
//     (rows[ps] = oracle.DistRow(ps)). Storing into the container's
//     own slots stays legal — that is building a local index, not
//     mutating oracle memory — but an element read yields a shared
//     reference, and a two-level write (rows[ps][0] = x) lands in
//     oracle memory.
//
// Findings, inside worker-executed code only: a write whose lvalue
// spine passes through a source call's result, a write through a
// shared root, a two-or-more-level write through a holder, and a
// shared value passed to a callee that writes through that parameter
// (effects.go ParamWrites). Dynamic calls are assumed write-free — the
// fail-safe stance of every index-based check.
type SnapshotFreeze struct{}

// sfSources is the blessed oracle read API whose results are shared
// oracle-owned memory, keyed "(Receiver).Method" and gated on the
// netstate package base (so the golden fixture's miniature Oracle hits
// the same table). Scalar-returning entries are harmless — refLike
// launders them — but keeping the full blessed list here documents the
// contract in one place.
var sfSources = map[string]bool{
	"(Oracle).Dist":              true,
	"(Oracle).DistRow":           true,
	"(Oracle).ShortestPath":      true,
	"(Oracle).NearestByDist":     true,
	"(Oracle).TypeTemplate":      true,
	"(Oracle).SwitchesOfType":    true,
	"(Oracle).StagesForTemplate": true,
	"(Oracle).AccessSwitch":      true,
}

// poolEntrypoints are the fan-out calls whose function-literal arguments
// run on worker goroutines: the internal/parallel pool entry points.
var poolEntrypoints = map[string]bool{
	"parallel.ForEach": true,
	"parallel.Map":     true,
}

// Name implements Check.
func (SnapshotFreeze) Name() string { return "snapshotfreeze" }

// Doc implements Check.
func (SnapshotFreeze) Doc() string {
	return "oracle read-API results captured by worker goroutines are frozen; copy before mutating"
}

// sfIsSource reports whether a callee key is a blessed oracle read.
func sfIsSource(callee FuncKey) bool {
	base, method, _ := strings.Cut(shortKey(callee), ".")
	return base == "netstate" && sfSources[method]
}

// sfTaintSet is the per-declaration taint state.
type sfTaintSet struct {
	shared map[types.Object]bool
	holds  map[types.Object]bool
}

// seed marks the expressions that are shared oracle references outright:
// a shared object, an element read out of a holder, and a source call.
func (t *sfTaintSet) seed(pkg *Package) func(ast.Expr) bool {
	return func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return t.shared[pkg.Info.ObjectOf(x)]
		case *ast.IndexExpr:
			id, ok := ast.Unparen(x.X).(*ast.Ident)
			return ok && t.holds[pkg.Info.ObjectOf(id)]
		case *ast.CallExpr:
			return sfIsSource(resolveCall(pkg, x))
		}
		return false
	}
}

// sfTaint runs the flow-insensitive taint fixpoint over one
// declaration body.
func sfTaint(pkg *Package, body ast.Node) *sfTaintSet {
	t := &sfTaintSet{shared: make(map[types.Object]bool), holds: make(map[types.Object]bool)}
	seed := t.seed(pkg)
	for changed := true; changed; {
		changed = false
		markShared := func(obj types.Object) {
			if obj != nil && !t.shared[obj] {
				t.shared[obj] = true
				changed = true
			}
		}
		markHolds := func(obj types.Object) {
			if obj != nil && !t.holds[obj] {
				t.holds[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				// Tuple form: types, err := o.TypeTemplate(...) taints
				// every reference-like (non-error) result binding.
				if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
					if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && sfIsSource(resolveCall(pkg, call)) {
						for _, lhs := range s.Lhs {
							if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
								obj := pkg.Info.ObjectOf(id)
								if obj != nil && refLike(obj.Type()) && !sfIsErrType(obj.Type()) {
									markShared(obj)
								}
							}
						}
					}
					return true
				}
				for i, lhs := range s.Lhs {
					if i >= len(s.Rhs) || !carries(pkg, s.Rhs[i], seed) {
						continue
					}
					sp := spineOf(pkg, lhs)
					if len(sp.layers) == 0 {
						markShared(sp.root) // plain rebind: alias
					} else if !t.shared[sp.root] {
						markHolds(sp.root) // store into a local container
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) && name.Name != "_" && carries(pkg, s.Values[i], seed) {
						markShared(pkg.Info.Defs[name])
					}
				}
			case *ast.RangeStmt:
				if s.Value == nil {
					return true
				}
				overShared := reaches(pkg, s.X, seed)
				if id, ok := ast.Unparen(s.X).(*ast.Ident); ok && t.holds[pkg.Info.ObjectOf(id)] {
					overShared = true
				}
				if overShared {
					if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok && refLike(pkg.Info.TypeOf(id)) {
						markShared(pkg.Info.ObjectOf(id))
					}
				}
			}
			return true
		})
	}
	return t
}

// sfIsErrType reports whether t is the built-in error interface (its
// bindings are reference-like but never oracle memory).
func sfIsErrType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// RunModule implements ModuleCheck.
func (SnapshotFreeze) RunModule(mp *ModulePass) {
	eff := mp.Index.Effects()
	reported := make(map[string]bool) // pkg.Path + pos dedup across overlapping regions

	// Phase 1: launch sites. Worker literals are analyzed in their
	// launcher's taint context (they capture its locals); named go
	// callees and calls made inside worker literals seed the closure,
	// naming the launching function as their root.
	var seeds []floodSeed
	forEachFunc(mp.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		key := declKey(pkg, fd)
		root := shortKey(key)
		var lits []*ast.FuncLit
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				if fl, isLit := ast.Unparen(x.Call.Fun).(*ast.FuncLit); isLit {
					lits = append(lits, fl)
				} else {
					seeds = append(seeds, floodSeed{resolveCall(pkg, x.Call), root})
				}
			case *ast.CallExpr:
				if !poolEntrypoints[shortKey(resolveCall(pkg, x))] {
					return true
				}
				for _, a := range x.Args {
					if fl, isLit := ast.Unparen(a).(*ast.FuncLit); isLit {
						lits = append(lits, fl)
					}
				}
			}
			return true
		})
		if len(lits) == 0 {
			return
		}
		taint := sfTaint(pkg, fd.Body)
		for _, fl := range lits {
			sfFindings(mp, pkg, key, fl.Body, taint, eff, reported, "goroutine launched in "+root)
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					seeds = append(seeds, floodSeed{resolveCall(pkg, call), root})
				}
				return true
			})
		}
	})

	// Phase 2: the worker-reachable closure — every declared function a
	// worker can call runs entirely on the worker goroutine, so its
	// whole body is in scope.
	order, via := mp.Index.flood(seeds)
	for _, k := range order {
		if info := mp.Index.Funcs[k]; info != nil {
			sfFindings(mp, info.Pkg, k, info.Decl.Body, sfTaint(info.Pkg, info.Decl.Body), eff, reported,
				shortKey(k)+", reachable from a goroutine launched in "+via[k]+",")
		}
	}
}

// sfFindings scans one worker-executed region for writes into shared
// oracle memory. declKey names the enclosing declaration (whose effects
// summary carries the call-argument bindings for the ParamWrites rule);
// region bounds the scan; whoFmt prefixes the diagnostics.
func sfFindings(mp *ModulePass, pkg *Package, declKey FuncKey, region ast.Node,
	taint *sfTaintSet, eff *Effects, reported map[string]bool, whoFmt string) {

	report := func(pos token.Pos, format string, args ...any) {
		k := pkg.Path + "\x00" + pkg.Fset.Position(pos).String()
		if reported[k] {
			return
		}
		reported[k] = true
		mp.Reportf(pkg, pos, format, args...)
	}

	checkWrite := func(lhs ast.Expr) {
		sp := spineOf(pkg, lhs)
		if len(sp.layers) == 0 {
			return // rebinding a variable writes no shared memory
		}
		var src FuncKey
		if sp.call != nil {
			src = resolveCall(pkg, sp.call)
		}
		switch {
		case sfIsSource(src):
			report(lhs.Pos(),
				"%s writes through the result of %s; oracle read results are shared and frozen — copy before mutating (append([]T(nil), s...))",
				whoFmt, shortKey(src))
		case taint.shared[sp.root]:
			report(lhs.Pos(),
				"%s writes through %s, which aliases shared oracle memory; read-API results are frozen — copy before mutating (append([]T(nil), s...))",
				whoFmt, sp.root.Name())
		case taint.holds[sp.root] && len(sp.layers) >= 2:
			report(lhs.Pos(),
				"%s writes through an element of %s, which holds shared oracle rows; read-API results are frozen — copy before mutating",
				whoFmt, sp.root.Name())
		}
	}

	ast.Inspect(region, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(s.X)
		}
		return true
	})

	// ParamWrites rule: a shared value handed to a callee that writes
	// through that parameter mutates oracle memory one frame down.
	fe := eff.Of(declKey)
	if fe == nil {
		return
	}
	for _, c := range fe.Calls {
		if c.Pos < region.Pos() || c.Pos >= region.End() {
			continue
		}
		for _, obj := range c.Args {
			if obj != nil && taint.shared[obj] && eff.WritesThroughArg(c, obj) {
				report(c.Pos,
					"%s passes %s, which aliases shared oracle memory, to %s, which writes through it; copy before handing it to a mutating helper",
					whoFmt, obj.Name(), shortKey(c.Callee))
			}
		}
	}
}
