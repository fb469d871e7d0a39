package analysis

import (
	"go/ast"
	"go/types"
)

// MergeOrder verifies that results fanned out through internal/parallel
// flow back through a deterministic merge. Worker goroutines complete in
// scheduler order, so any accumulation that depends on completion order —
// appending to a shared slice, inserting into a shared map, bumping a
// shared counter of float costs — makes the decision value depend on the
// OS scheduler, which is exactly the nondeterminism the paper's
// fixed-seed evaluation cannot tolerate (and -race may not even flag it
// when a mutex serializes the writes).
//
// For each call to parallel.Map with a function-literal worker,
// every write the worker makes to a captured variable must either be
// index-addressed by the worker's index parameter (out[i] = v — each
// worker owns a distinct slot, merge order is the index order) or the
// captured slice must be explicitly sorted after the fan-out returns.
// Captured map writes are always flagged (insertion order is
// unrecoverable), as are workers passed by name (the body is not visible
// at the call site to verify).
type MergeOrder struct{}

// Name implements Check.
func (MergeOrder) Name() string { return "mergeorder" }

// Doc implements Check.
func (MergeOrder) Doc() string {
	return "parallel.Map workers must merge results via index-addressed slices or an explicit post-fan-out sort"
}

// Run implements PackageCheck.
func (MergeOrder) Run(p *Pass) {
	forEachFunc([]*Package{p.Pkg}, func(_ *Package, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isParallelMap(p, call) || len(call.Args) == 0 {
				return true
			}
			worker := call.Args[len(call.Args)-1]
			lit, ok := ast.Unparen(worker).(*ast.FuncLit)
			if !ok {
				p.Reportf(worker.Pos(),
					"worker passed to parallel.Map by name; pass a function literal so the merge order is verifiable at the call site")
				return true
			}
			checkWorker(p, fd, call, lit)
			return true
		})
	})
}

// isParallelMap reports whether call targets internal/parallel's Map.
func isParallelMap(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && f.Pkg() != nil && shortKey(f.Pkg().Path()) == "parallel" && f.Name() == "Map"
}

// checkWorker audits one worker literal's writes to captured state.
func checkWorker(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, lit *ast.FuncLit) {
	idxObj := workerIndexParam(p, lit)
	flag := func(e ast.Expr, mapWrite bool, base types.Object) {
		if mapWrite {
			p.Reportf(e.Pos(),
				"parallel.Map worker writes captured map %s; insertion order is scheduler-dependent — collect into an index-addressed slice and build the map after the call", base.Name())
			return
		}
		// A slice accumulated out of order is acceptable when explicitly
		// sorted after the fan-out returns.
		if sortedAfter(p, fd.Body, call.End(), base) {
			return
		}
		p.Reportf(e.Pos(),
			"parallel.Map worker writes captured %s in completion order; index it by the worker index or sort it after the call returns", base.Name())
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				auditLvalue(p, lit, idxObj, lhs, flag)
			}
		case *ast.IncDecStmt:
			auditLvalue(p, lit, idxObj, s.X, flag)
		case *ast.CallExpr:
			if builtinName(p.Pkg, s.Fun) == "delete" && len(s.Args) > 0 {
				auditLvalue(p, lit, idxObj, s.Args[0], flag)
			}
		}
		return true
	})
}

// workerIndexParam returns the object of the worker's index parameter
// (the first parameter of the literal), or nil when unnamed.
func workerIndexParam(p *Pass, lit *ast.FuncLit) types.Object {
	params := lit.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return nil
	}
	return p.Pkg.Info.Defs[params.List[0].Names[0]]
}

// auditLvalue walks one assigned expression's spine. Writes rooted at a
// variable captured from outside the literal are reported via flag unless
// some index on the spine is addressed by the worker's index parameter.
func auditLvalue(p *Pass, lit *ast.FuncLit, idxObj types.Object, e ast.Expr, flag func(ast.Expr, bool, types.Object)) {
	sp := spineOf(p.Pkg, e)
	if sp.root == nil || !capturedBy(lit, sp.root) {
		return // worker-local state is invisible outside
	}
	indexed, mapWrite := false, false
	for _, l := range sp.layers {
		x, ok := l.(*ast.IndexExpr)
		if !ok {
			continue
		}
		if t := p.TypeOf(x.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				mapWrite = true
			}
		}
		if idxObj != nil && mentionsObject(p, x.Index, idxObj) {
			indexed = true
		}
	}
	if indexed && !mapWrite {
		return // out[i] = v: each worker owns its slot
	}
	flag(e, mapWrite, sp.root)
}

// capturedBy reports whether obj is declared outside the literal (a true
// capture, not a worker-local or the worker's own parameters).
func capturedBy(lit *ast.FuncLit, obj types.Object) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// mentionsObject reports whether expression e references obj.
func mentionsObject(p *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Pkg.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
