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
// The oracle's read API (DistRow, ShortestPath, TypeTemplate, BestRoute,
// StagesForTemplate, ...) deliberately returns SHARED cache-resident
// slices — "callers must not modify" is in every doc comment, and the
// preference build's workers rely on it: they read the same distance
// rows concurrently, so one worker writing a row corrupts every other
// worker's reads.
// publishfreeze proves the PRODUCER side (published values immutable
// after the atomic store); this check proves the CONSUMER side across
// goroutine boundaries, extending the same freeze discipline to every
// capture.
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
//     the blessed clone idiom. Scalar reads launder too (peRefLike).
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
// the same table). Scalar-returning entries are harmless — peRefLike
// launders them — but keeping the full blessed list here documents the
// contract in one place.
var sfSources = map[string]bool{
	"(Oracle).Dist":              true,
	"(Oracle).DistRow":           true,
	"(Oracle).ShortestPath":      true,
	"(Oracle).PathDAG":           true,
	"(Oracle).NearestByDist":     true,
	"(Oracle).TypeTemplate":      true,
	"(Oracle).BestRoute":         true,
	"(Oracle).RouteCost":         true,
	"(Oracle).Headroom":          true,
	"(Oracle).Load":              true,
	"(Oracle).SwitchesOfType":    true,
	"(Oracle).StagesForTemplate": true,
	"(Oracle).AccessSwitch":      true,
	"(Oracle).PathBandwidth":     true,
}

// poolEntrypoints are the fan-out calls whose function-literal arguments
// run on worker goroutines: the internal/parallel pool entry points.
var poolEntrypoints = map[string]bool{
	"parallel.ForEach": true,
	"parallel.Map":     true,
}

// recvMethod extracts the "(Receiver).Method" suffix of a method key,
// or "" for plain functions.
func recvMethod(key FuncKey) string {
	i := strings.Index(key, ".(")
	if i < 0 {
		return ""
	}
	return key[i+1:]
}

// keyPkgBase extracts the package base name of an index key.
func keyPkgBase(key FuncKey) string {
	s := shortKey(key)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return s[:i]
	}
	return s
}

// Name implements Check.
func (SnapshotFreeze) Name() string { return "snapshotfreeze" }

// Doc implements Check.
func (SnapshotFreeze) Doc() string {
	return "oracle read-API results captured by worker goroutines are frozen; copy before mutating"
}

// sfIsSource reports whether a callee key is a blessed oracle read.
func sfIsSource(callee FuncKey) bool {
	rm := recvMethod(callee)
	return rm != "" && sfSources[rm] && keyPkgBase(callee) == "netstate"
}

// sfTaintSet is the per-declaration taint state.
type sfTaintSet struct {
	shared map[types.Object]bool
	holds  map[types.Object]bool
}

// sfSharedExpr reports whether the expression's value is a shared
// oracle reference.
func sfSharedExpr(pkg *Package, t *sfTaintSet, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return sfSharedExpr(pkg, t, x.X)
	case *ast.Ident:
		return t.shared[pkg.Info.ObjectOf(x)]
	case *ast.StarExpr:
		return sfSharedExpr(pkg, t, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return sfSharedExpr(pkg, t, x.X)
		}
		return false
	case *ast.IndexExpr:
		// An element read out of a holder is a shared reference.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && t.holds[pkg.Info.ObjectOf(id)] {
			return true
		}
		return sfSharedExpr(pkg, t, x.X)
	case *ast.SliceExpr:
		return sfSharedExpr(pkg, t, x.X)
	case *ast.SelectorExpr:
		if _, field := fieldOf(pkg, x); field != nil {
			return sfSharedExpr(pkg, t, x.X)
		}
		return false
	case *ast.TypeAssertExpr:
		return sfSharedExpr(pkg, t, x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if sfSharedExpr(pkg, t, el) {
				return true
			}
		}
	case *ast.CallExpr:
		if sfIsSource(resolveCall(pkg, x)) {
			return true
		}
		// Conversions share backing; append shares its first argument's
		// backing (append([]T(nil), s...) is the blessed fresh copy);
		// other builtins return scalars; remaining calls may return
		// views of any reference-like argument.
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 {
				return sfSharedExpr(pkg, t, x.Args[0])
			}
			return false
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				if id.Name == "append" && len(x.Args) > 0 {
					return sfSharedExpr(pkg, t, x.Args[0])
				}
				return false
			}
		}
		for _, a := range x.Args {
			if sfSharedExpr(pkg, t, a) && peRefLike(pkg.Info.TypeOf(a), nil) {
				return true
			}
		}
	}
	return false
}

// sfTaint runs the flow-insensitive taint fixpoint over one
// declaration body.
func sfTaint(pkg *Package, body ast.Node) *sfTaintSet {
	t := &sfTaintSet{shared: make(map[types.Object]bool), holds: make(map[types.Object]bool)}
	sharedVal := func(e ast.Expr) bool {
		return sfSharedExpr(pkg, t, e) && peRefLike(pkg.Info.TypeOf(e), nil)
	}
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
								if obj != nil && peRefLike(obj.Type(), nil) && !sfIsErrType(obj.Type()) {
									markShared(obj)
								}
							}
						}
					}
					return true
				}
				for i, lhs := range s.Lhs {
					if i >= len(s.Rhs) || !sharedVal(s.Rhs[i]) {
						continue
					}
					root, layers, _ := sfLvalue(pkg, lhs)
					if root == nil {
						continue
					}
					if layers == 0 {
						markShared(root) // plain rebind: alias
					} else if !t.shared[root] {
						markHolds(root) // store into a local container
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) && name.Name != "_" && sharedVal(s.Values[i]) {
						markShared(pkg.Info.Defs[name])
					}
				}
			case *ast.RangeStmt:
				if s.Value == nil {
					return true
				}
				overShared := sfSharedExpr(pkg, t, s.X)
				if id, ok := ast.Unparen(s.X).(*ast.Ident); ok && t.holds[pkg.Info.ObjectOf(id)] {
					overShared = true
				}
				if overShared {
					if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok && peRefLike(pkg.Info.TypeOf(id), nil) {
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

// sfLvalue walks an lvalue spine: the root object (nil when the spine
// bottoms out in a call or non-ident), the number of deref/index/field
// layers written through, and the source call on the spine, if any
// (o.DistRow(2)[0] = 9 has no root but writes oracle memory directly).
func sfLvalue(pkg *Package, e ast.Expr) (root types.Object, layers int, srcCall FuncKey) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			layers++
			e = x.X
		case *ast.IndexExpr:
			layers++
			e = x.X
		case *ast.SliceExpr:
			layers++
			e = x.X
		case *ast.SelectorExpr:
			if _, field := fieldOf(pkg, x); field == nil {
				return nil, layers, ""
			}
			layers++
			e = x.X
		case *ast.CallExpr:
			if callee := resolveCall(pkg, x); sfIsSource(callee) {
				return nil, layers, callee
			}
			return nil, layers, ""
		case *ast.Ident:
			return pkg.Info.ObjectOf(x), layers, ""
		default:
			return nil, layers, ""
		}
	}
}

// RunModule implements ModuleCheck.
func (SnapshotFreeze) RunModule(mp *ModulePass) {
	eff := mp.Index.Effects()
	reported := make(map[string]bool) // pkg.Path + pos dedup across overlapping regions

	// via maps worker-reachable functions to the shortKey of the
	// function whose launch rooted them, for diagnostics.
	via := make(map[FuncKey]string)
	var queue []FuncKey
	seed := func(callee FuncKey, root string) {
		if callee == "" {
			return
		}
		if _, seen := via[callee]; !seen {
			via[callee] = root
			queue = append(queue, callee)
		}
	}

	// Phase 1: launch sites. Worker literals are analyzed in their
	// launcher's taint context (they capture its locals); named go
	// callees and calls made inside worker literals seed the closure.
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var lits []*ast.FuncLit
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.GoStmt:
						if fl, isLit := ast.Unparen(x.Call.Fun).(*ast.FuncLit); isLit {
							lits = append(lits, fl)
						} else {
							seed(resolveCall(pkg, x.Call), shortKey(declKey(pkg, fd)))
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
					continue
				}
				root := shortKey(declKey(pkg, fd))
				taint := sfTaint(pkg, fd.Body)
				key := declKey(pkg, fd)
				for _, fl := range lits {
					sfFindings(mp, pkg, key, fl.Body, taint, eff, reported,
						"goroutine launched in "+root)
					ast.Inspect(fl.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							seed(resolveCall(pkg, call), root)
						}
						return true
					})
				}
			}
		}
	}

	// Phase 2: the worker-reachable closure — every declared function a
	// worker can call runs entirely on the worker goroutine, so its
	// whole body is in scope.
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		info := mp.Index.Funcs[k]
		if info == nil {
			continue
		}
		taint := sfTaint(info.Pkg, info.Decl.Body)
		sfFindings(mp, info.Pkg, k, info.Decl.Body, taint, eff, reported,
			shortKey(k)+", reachable from a goroutine launched in "+via[k]+",")
		for _, c := range info.Calls {
			seed(c.Callee, via[k])
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
		root, layers, srcCall := sfLvalue(pkg, lhs)
		switch {
		case srcCall != "" && layers > 0:
			report(lhs.Pos(),
				"%s writes through the result of %s; oracle read results are shared and frozen — copy before mutating (append([]T(nil), s...))",
				whoFmt, shortKey(srcCall))
		case root != nil && taint.shared[root] && layers > 0:
			report(lhs.Pos(),
				"%s writes through %s, which aliases shared oracle memory; read-API results are frozen — copy before mutating (append([]T(nil), s...))",
				whoFmt, root.Name())
		case root != nil && taint.holds[root] && layers >= 2:
			report(lhs.Pos(),
				"%s writes through an element of %s, which holds shared oracle rows; read-API results are frozen — copy before mutating",
				whoFmt, root.Name())
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
