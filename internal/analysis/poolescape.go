package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolescape: objects drawn from a sync.Pool, and buffers backed by the
// registered slab allocators, must be proven either returned to the pool
// on every exit path or unreachable from return values and outward
// stores.
//
// PR-6 made the hot wave loop allocation-free by reusing scratch: the
// netstate DP buffers (dpPool), the controller's feasible-candidate pool,
// core's assignScratch and stablematch's Matcher slabs. The invariant
// that makes reuse safe is strictly one of lifetime: slab memory may flow
// anywhere WITHIN a call (re-sliced, handed to helpers, swapped), but
// must never be reachable from anything that outlives it — a Result, a
// returned slice, a captured goroutine. One `return sc.grades[:n]`
// instead of a copy and the next wave silently overwrites a caller's
// data. This check proves the discipline per function:
//
//   - Rule A (Put balance), per function unit (a declaration or one of
//     its function literals): every sync.Pool.Get must reach a Put on
//     every exit path of the shared path walker (flow.go) — a deferred
//     Put covers the later exits of its own path, and branch joins are
//     pessimistic (held if held on any path).
//   - Rule B (escape), flat over the whole declaration including
//     closures: pooled objects and chains rooted at registered slab
//     fields (peSlabFields) are tainted; taint flows through re-slicing,
//     copies, composite literals, append-from and calls that take tainted
//     arguments and return reference-like values (growFloats and friends
//     return views of their argument). A finding is any tainted return, a
//     tainted store through a parameter/receiver/global that is not
//     itself a registered slab field, a tainted channel send, or a
//     tainted argument to a go statement.
//
// Writing tainted memory into a registered slab field is re-registration,
// not escape (m.free = free[:0]); writing into a local container only
// taints the container, and the rules above decide whether THAT escapes.
// Intraprocedural per-function reasoning stays sound compositionally
// because the same rules apply inside every helper: a helper cannot leak
// its argument without itself being flagged, so callers only need the
// call-result taint rule.

// peSlabFields registers the long-lived reusable slab allocators: fields
// whose backing arrays persist across calls by design. Chains rooted here
// are tainted; stores back into them are allowed.
var peSlabFields = map[string]bool{
	"stablematch.Matcher.rankBack":    true,
	"stablematch.Matcher.hostRank":    true,
	"stablematch.Matcher.blackBack":   true,
	"stablematch.Matcher.blacklist":   true,
	"stablematch.Matcher.rejectedTop": true,
	"stablematch.Matcher.next":        true,
	"stablematch.Matcher.used":        true,
	"stablematch.Matcher.tenants":     true,
	"stablematch.Matcher.free":        true,
}

// PoolEscape is the v3 pool/slab lifetime check.
type PoolEscape struct{}

// Name implements Check.
func (PoolEscape) Name() string { return "poolescape" }

// Doc implements Check.
func (PoolEscape) Doc() string {
	return "sync.Pool objects must be Put on every exit path and pool/slab memory must not escape the call"
}

// RunModule implements ModuleCheck.
func (PoolEscape) RunModule(mp *ModulePass) {
	forEachFunc(mp.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		// Rule A per function unit: the declaration and each literal.
		var pooled []types.Object // every pooled object, for rule B seeding
		units := []*ast.BlockStmt{fd.Body}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				units = append(units, fl.Body)
			}
			return true
		})
		for _, body := range units {
			pooled = append(pooled, peRuleA(mp, pkg, body, units)...)
		}
		peRuleB(mp, pkg, fd, pooled)
	})
}

// peGet is one tracked Pool.Get binding.
type peGet struct {
	pos    token.Pos
	obj    types.Object
	leaked bool
}

// peIsPoolMethod reports whether call is sync.Pool method name on any
// receiver expression.
func peIsPoolMethod(pkg *Package, call *ast.CallExpr, name string) bool {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return isSel && sel.Sel.Name == name && isNamed(pkg.Info.TypeOf(sel.X), "sync", "Pool")
}

// peGetCall unwraps an expression to a Pool.Get call, looking through
// parens and type assertions (pool.Get().(*scratch)).
func peGetCall(pkg *Package, e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	if call, ok := e.(*ast.CallExpr); ok && peIsPoolMethod(pkg, call, "Get") {
		return call
	}
	return nil
}

// peRuleA walks one function unit proving every Get reaches a Put on
// every exit path. Nested literal bodies (their own units) are skipped.
// It returns the pooled objects found, for rule B seeding.
func peRuleA(mp *ModulePass, pkg *Package, body *ast.BlockStmt, units []*ast.BlockStmt) []types.Object {
	nested := func(n ast.Node) bool {
		for _, u := range units {
			if u != body && u.Pos() <= n.Pos() && n.Pos() < u.End() {
				return true
			}
		}
		return false
	}

	// Pre-pass: find Get bindings and unbound Gets in this unit. An
	// assignment is visited before the calls on its right-hand side.
	u := &peUnit{pkg: pkg, gets: make(map[types.Object]*peGet)}
	bound := make(map[*ast.CallExpr]bool)
	var order []*peGet
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || nested(n) {
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok && !bound[call] && peIsPoolMethod(pkg, call, "Get") {
			mp.Reportf(pkg, call.Pos(),
				"result of Pool.Get is not bound to a variable; taalint cannot prove it returns to the pool")
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call := peGetCall(pkg, rhs)
			if call == nil || i >= len(as.Lhs) {
				continue
			}
			id, isID := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !isID {
				continue
			}
			obj := pkg.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			bound[call] = true
			g := &peGet{pos: call.Pos(), obj: obj}
			u.gets[obj] = g
			order = append(order, g)
		}
		return true
	})

	if len(order) == 0 {
		return nil
	}
	walkBody(pkg, u, body, peState{held: make(map[*peGet]bool), deferred: make(map[*peGet]bool)})
	var pooled []types.Object
	for _, g := range order {
		pooled = append(pooled, g.obj)
		if g.leaked {
			mp.Reportf(pkg, g.pos,
				"pooled %s may not be returned to its pool on every exit path; defer the Put or Put before each return",
				g.obj.Name())
		}
	}
	return pooled
}

// peState is rule A's path state: the pooled objects held, and the ones a
// defer registered on this path will Put.
type peState struct{ held, deferred map[*peGet]bool }

// peUnit is rule A's transfer over the shared path walker for one unit.
type peUnit struct {
	pkg  *Package
	gets map[types.Object]*peGet
}

func (u *peUnit) copy(st peState) peState {
	c := peState{held: make(map[*peGet]bool, len(st.held)), deferred: make(map[*peGet]bool, len(st.deferred))}
	for g := range st.held {
		c.held[g] = true
	}
	for g := range st.deferred {
		c.deferred[g] = true
	}
	return c
}

// join: held on any path stays held; a defer registered on only some
// paths is not guaranteed to run.
func (u *peUnit) join(a, b peState) peState {
	for g := range b.held {
		a.held[g] = true
	}
	for g := range a.deferred {
		if !b.deferred[g] {
			delete(a.deferred, g)
		}
	}
	return a
}

// exit marks every object held and not Put by a registered defer leaked.
func (u *peUnit) exit(st peState) {
	for g := range st.held {
		if !st.deferred[g] {
			g.leaked = true
		}
	}
}

func (u *peUnit) stmt(s ast.Stmt, st peState) peState {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for i, rhs := range x.Rhs {
			if peGetCall(u.pkg, rhs) != nil && i < len(x.Lhs) {
				if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
					if g := u.gets[u.pkg.Info.ObjectOf(id)]; g != nil {
						st.held[g] = true
					}
				}
			}
		}
	case *ast.ExprStmt:
		for _, g := range u.putTargets(x) {
			delete(st.held, g)
		}
	}
	return st
}

func (u *peUnit) expr(_ ast.Expr, st peState) peState { return st }

func (u *peUnit) deferred(d *ast.DeferStmt, st peState) peState {
	for _, g := range u.putTargets(d) {
		st.deferred[g] = true
	}
	return st
}

// putTargets resolves the objects a statement Puts back, looking inside a
// deferred closure body too (defer func() { pool.Put(x) }()).
func (u *peUnit) putTargets(n ast.Node) []*peGet {
	var out []*peGet
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && len(call.Args) == 1 && peIsPoolMethod(u.pkg, call, "Put") {
			if g := u.gets[rootIdentObject(u.pkg, call.Args[0])]; g != nil {
				out = append(out, g)
			}
		}
		return true
	})
	return out
}

// peRuleB runs the flat taint/escape analysis over one declaration.
func peRuleB(mp *ModulePass, pkg *Package, fd *ast.FuncDecl, pooled []types.Object) {
	tainted := make(map[types.Object]bool)
	for _, obj := range pooled {
		tainted[obj] = true
	}
	// Seeds: pooled objects and what they taint, and chains rooted at a
	// registered slab field.
	seed := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return tainted[pkg.Info.ObjectOf(x)]
		case *ast.SelectorExpr:
			return peSlab(pkg, x)
		}
		return false
	}

	// lvalue walks an lvalue spine: root object, nontrivial (writes
	// through, not rebinds), and whether any field on the spine is a
	// registered slab field (re-registration).
	lvalue := func(e ast.Expr) (root types.Object, nontrivial, slab bool) {
		sp := spineOf(pkg, e)
		for _, x := range sp.fields() {
			slab = slab || peSlab(pkg, x)
		}
		return sp.root, len(sp.layers) > 0, slab
	}

	// Formal slots and named results: roots that outlive the call body.
	outlives := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) []types.Object {
		var objs []types.Object
		if fl == nil {
			return nil
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					outlives[obj] = true
					objs = append(objs, obj)
				}
			}
		}
		return objs
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	namedResults := addFields(fd.Type.Results)
	nonLocal := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		return outlives[obj] || obj.Parent() == pkg.Pkg.Scope()
	}

	// Taint propagation to fixpoint: copies, container stores, ranges.
	for changed := true; changed; {
		changed = false
		taint := func(obj types.Object) {
			if obj != nil && !tainted[obj] {
				tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					if i >= len(s.Rhs) {
						break
					}
					if !carries(pkg, s.Rhs[i], seed) {
						continue
					}
					root, nontrivial, slab := lvalue(lhs)
					if root == nil || slab {
						continue
					}
					if !nontrivial || !nonLocal(root) {
						// Rebinding taints the variable; a store into a
						// local container taints the container.
						taint(root)
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) && carries(pkg, s.Values[i], seed) {
						taint(pkg.Info.Defs[name])
					}
				}
			case *ast.RangeStmt:
				if s.Value != nil && reaches(pkg, s.X, seed) {
					if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok && refLike(pkg.Info.TypeOf(id)) {
						taint(pkg.Info.ObjectOf(id))
					}
				}
			}
			return true
		})
	}

	// Escape detection.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			if len(s.Results) == 0 {
				for _, obj := range namedResults {
					if tainted[obj] {
						mp.Reportf(pkg, s.Pos(),
							"named result %s carries pool/slab-backed memory out of the call; copy into a fresh allocation",
							obj.Name())
					}
				}
				return true
			}
			for _, r := range s.Results {
				if carries(pkg, r, seed) {
					mp.Reportf(pkg, r.Pos(),
						"return value reaches pool/slab-backed memory; pooled buffers must not outlive the call — copy into a fresh allocation")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) || !carries(pkg, s.Rhs[i], seed) {
					continue
				}
				root, nontrivial, slab := lvalue(lhs)
				if slab || root == nil || !nontrivial {
					continue
				}
				if nonLocal(root) {
					mp.Reportf(pkg, lhs.Pos(),
						"pool/slab-backed memory stored through %s, which outlives this call; copy first or store into a registered slab field (peSlabFields)",
						root.Name())
				}
			}
		case *ast.SendStmt:
			if carries(pkg, s.Value, seed) {
				mp.Reportf(pkg, s.Value.Pos(),
					"pool/slab-backed memory sent on a channel; the receiver outlives this call — copy into a fresh allocation")
			}
		case *ast.GoStmt:
			for _, a := range s.Call.Args {
				if carries(pkg, a, seed) {
					mp.Reportf(pkg, a.Pos(),
						"pool/slab-backed memory passed to a goroutine that may outlive this call; copy into a fresh allocation")
				}
			}
		}
		return true
	})
}

// peSlab reports whether sel selects a registered slab field.
func peSlab(pkg *Package, sel *ast.SelectorExpr) bool {
	return peSlabFields[fieldKey(pkg, sel)]
}
