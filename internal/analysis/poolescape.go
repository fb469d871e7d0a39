package analysis

import (
	"go/ast"
	"go/types"
)

// poolescape: buffers backed by the registered slab fields must not be
// reachable from return values or outward stores.
//
// The hot wave loop reuses scratch held by its single owner: the
// netstate oracle's DP buffers, the controller's feasible-switch filter
// buffer, core's assignScratch and stablematch's Matcher slabs. The
// invariant that makes reuse safe is strictly one of lifetime: slab
// memory may flow anywhere WITHIN a call (re-sliced, handed to helpers,
// swapped), but must never be reachable from anything that outlives it —
// a Result, a returned slice, a captured goroutine. One
// `return sc.grades[:n]` instead of a copy and the next wave silently
// overwrites a caller's data. This check proves the discipline per
// function declaration, flat over the whole declaration including
// closures: chains rooted at registered slab fields (peSlabFields) are
// tainted; taint flows through re-slicing, copies, address-of, composite
// literals, append-from and calls that take tainted arguments and return
// reference-like values (growFloats and friends return views of their
// argument). A finding is any tainted return, a tainted store through a
// parameter/receiver/global that is not itself a registered slab field, a
// tainted channel send, or a tainted argument to a go statement.
//
// Writing tainted memory into a registered slab field is re-registration,
// not escape (m.free = free[:0]); writing into a local container only
// taints the container, and the rules above decide whether THAT escapes.
// Helpers are checked through their callers: a call that takes a tainted
// argument returns tainted memory, so a view a helper hands back is
// caught where the caller returns or stores it.

// peSlabFields registers the long-lived reusable slab allocators: fields
// whose backing arrays persist across calls by design. Chains rooted here
// are tainted; stores back into them are allowed.
var peSlabFields = map[string]bool{
	"core.HitScheduler.sc":            true,
	"netstate.Oracle.dp":              true,
	"controller.Controller.feasible":  true,
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

// PoolEscape is the slab lifetime check.
type PoolEscape struct{}

// Name implements Check.
func (PoolEscape) Name() string { return "poolescape" }

// Doc implements Check.
func (PoolEscape) Doc() string {
	return "memory held in registered slab fields must not escape the call"
}

// RunModule implements ModuleCheck.
func (PoolEscape) RunModule(mp *ModulePass) {
	forEachFunc(mp.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		peEscapes(mp, pkg, fd)
	})
}

// peEscapes runs the flat taint/escape analysis over one declaration.
func peEscapes(mp *ModulePass, pkg *Package, fd *ast.FuncDecl) {
	tainted := make(map[types.Object]bool)
	// Seeds: chains rooted at a registered slab field, and what they
	// taint.
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
							"named result %s carries slab-backed memory out of the call; copy into a fresh allocation",
							obj.Name())
					}
				}
				return true
			}
			for _, r := range s.Results {
				if carries(pkg, r, seed) {
					mp.Reportf(pkg, r.Pos(),
						"return value reaches slab-backed memory; slab buffers must not outlive the call — copy into a fresh allocation")
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
						"slab-backed memory stored through %s, which outlives this call; copy first or store into a registered slab field (peSlabFields)",
						root.Name())
				}
			}
		case *ast.SendStmt:
			if carries(pkg, s.Value, seed) {
				mp.Reportf(pkg, s.Value.Pos(),
					"slab-backed memory sent on a channel; the receiver outlives this call — copy into a fresh allocation")
			}
		case *ast.GoStmt:
			for _, a := range s.Call.Args {
				if carries(pkg, a, seed) {
					mp.Reportf(pkg, a.Pos(),
						"slab-backed memory passed to a goroutine that may outlive this call; copy into a fresh allocation")
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
