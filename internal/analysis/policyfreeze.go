package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// policyfreeze: a flow.Policy is immutable once built.
//
// The controller installs the caller's policy pointer, a solve's output
// is recorded and installed as the same value, and a policy's Types is
// the type template the topology and the netstate oracle share among
// every flow of one tier class. One stray write through any of those
// holders corrupts the others: a write into Types rewrites the template
// of every pair of that class. So outside package flow, a Policy's List
// or Types is written only through a local that holds a &flow.Policy{…}
// built in the same function — the builder, as RandomPolicy is.
//
// A write is an assignment to the field (p.List = x), an assignment or
// inc/dec of an element (p.List[i] = w), append into it (its first
// argument), copy into it, or sorting or another in-place sort/slices
// mutation of it. A field assignment is allowed through a fresh local
// (every value the function assigns it is a &flow.Policy{…} literal).
// A write into the field's memory is allowed only when, in addition, the
// function gave that field memory of its own: every literal leaves it
// unset or sets it to nil, make(…), a composite literal or an append to
// one of those, and so does every assignment to it, a self-append
// (p.List = append(p.List, w)) aside. Locals aliasing a policy's field
// (l := p.List, l := p.Types[1:]) carry the field with them, so a write
// through l is a write into the policy.

// pfFields are the Policy fields the check guards.
var pfFields = map[string]bool{
	"flow.Policy.List":  true,
	"flow.Policy.Types": true,
}

// pfMutators are the sort and slices functions that write into their
// first argument.
var pfMutators = map[FuncKey]bool{
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true, "sort.SliceStable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
	"slices.Reverse": true, "slices.Delete": true, "slices.DeleteFunc": true,
	"slices.Insert": true, "slices.Replace": true, "slices.Compact": true,
	"slices.CompactFunc": true,
}

// pfField names one guarded field of one local.
type pfField struct {
	obj   types.Object
	field string
}

// PolicyFreeze is the policy immutability check.
type PolicyFreeze struct{}

// Name implements Check.
func (PolicyFreeze) Name() string { return "policyfreeze" }

// Doc implements Check.
func (PolicyFreeze) Doc() string {
	return "a flow.Policy's List and Types are written only by the function that built it with &flow.Policy{…}"
}

// Run implements Check.
func (PolicyFreeze) Run(p *Pass) {
	if p.Pkg.Base() == "flow" {
		return
	}
	forEachFunc([]*Package{p.Pkg}, func(pkg *Package, fd *ast.FuncDecl) {
		(&pfFunc{pass: p, pkg: pkg, body: fd.Body}).run()
	})
}

// pfFunc is the check's state over one function declaration, closures
// included.
type pfFunc struct {
	pass *Pass
	pkg  *Package
	body *ast.BlockStmt
	// fresh holds the locals every assignment of which is a
	// &flow.Policy{…} literal; lits holds those literals.
	fresh map[types.Object]bool
	lits  map[types.Object][]*ast.CompositeLit
	// unowned holds the fields of fresh locals assigned memory the
	// function did not make.
	unowned map[pfField]bool
	// alias holds the locals that may point into a guarded field.
	alias map[types.Object]bool
}

func (f *pfFunc) run() {
	f.fresh = make(map[types.Object]bool)
	f.lits = make(map[types.Object][]*ast.CompositeLit)
	f.unowned = make(map[pfField]bool)
	f.alias = make(map[types.Object]bool)
	f.findFresh()
	f.findOwned()
	f.findAliases()
	ast.Inspect(f.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				f.checkLvalue(lhs)
			}
		case *ast.IncDecStmt:
			f.checkLvalue(s.X)
		case *ast.CallExpr:
			f.checkCall(s)
		}
		return true
	})
}

// local reports whether obj is a variable declared inside the body, not
// a parameter, result, receiver or package variable.
func (f *pfFunc) local(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Pos() >= f.body.Pos() && v.Pos() < f.body.End()
}

// policyLit returns the &flow.Policy{…} literal e is, or nil.
func (f *pfFunc) policyLit(e ast.Expr) *ast.CompositeLit {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	lit, ok := ast.Unparen(u.X).(*ast.CompositeLit)
	if !ok {
		return nil
	}
	named, ok := f.pkg.Info.TypeOf(lit).(*types.Named)
	if !ok || named.Obj().Name() != "Policy" || named.Obj().Pkg() == nil || shortKey(named.Obj().Pkg().Path()) != "flow" {
		return nil
	}
	return lit
}

// assignments calls fn for every (variable, value) pair the body binds:
// declarations with values, plain and defining assignments. A variable
// bound without a single matching value (a, b := f(), a range variable,
// a bare var) is reported with a nil value.
func (f *pfFunc) assignments(fn func(obj types.Object, val ast.Expr)) {
	ident := func(e ast.Expr) types.Object {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return f.pkg.Info.ObjectOf(id)
		}
		return nil
	}
	ast.Inspect(f.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				obj := ident(lhs)
				if obj == nil {
					continue
				}
				if len(s.Lhs) == len(s.Rhs) && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
					fn(obj, s.Rhs[i])
				} else {
					fn(obj, nil)
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				obj := f.pkg.Info.Defs[name]
				if len(s.Values) == len(s.Names) {
					fn(obj, s.Values[i])
				} else {
					fn(obj, nil)
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if obj := ident(e); obj != nil {
					fn(obj, nil)
				}
			}
		}
		return true
	})
}

// findFresh collects the locals bound only to &flow.Policy{…} literals.
func (f *pfFunc) findFresh() {
	bad := make(map[types.Object]bool)
	f.assignments(func(obj types.Object, val ast.Expr) {
		if !f.local(obj) {
			return
		}
		if lit := f.policyLit(val); lit != nil {
			f.lits[obj] = append(f.lits[obj], lit)
			return
		}
		bad[obj] = true
	})
	for obj := range f.lits {
		if !bad[obj] {
			f.fresh[obj] = true
		}
	}
}

// findOwned marks the guarded fields of fresh locals that a literal or
// an assignment points at memory the function did not make.
func (f *pfFunc) findOwned() {
	for obj, lits := range f.lits {
		for _, lit := range lits {
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					// Positional literals set every field.
					f.unowned[pfField{obj, "List"}] = true
					f.unowned[pfField{obj, "Types"}] = true
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && !f.ownMemory(kv.Value, nil) {
					f.unowned[pfField{obj, key.Name}] = true
				}
			}
		}
	}
	ast.Inspect(f.body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range s.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || !pfFields[fieldKey(f.pkg, sel)] {
				continue
			}
			obj := f.freshRoot(sel)
			if obj == nil {
				continue
			}
			if len(s.Lhs) != len(s.Rhs) || !f.ownMemory(s.Rhs[i], sel) {
				f.unowned[pfField{obj, sel.Sel.Name}] = true
			}
		}
		return true
	})
}

// ownMemory reports whether e is memory the function made itself: nil,
// make(…), a composite literal, or an append to one of those — or to
// self, the field being assigned.
func (f *pfFunc) ownMemory(e ast.Expr, self *ast.SelectorExpr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, isNil := f.pkg.Info.ObjectOf(x).(*types.Nil)
		return isNil
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		switch builtinName(f.pkg, x.Fun) {
		case "make":
			return true
		case "append":
			if len(x.Args) == 0 {
				return false
			}
			if self != nil && types.ExprString(ast.Unparen(x.Args[0])) == types.ExprString(self) {
				return true
			}
			return f.ownMemory(x.Args[0], nil)
		}
	}
	return false
}

// freshRoot returns the fresh local sel selects a field of (p in p.List),
// or nil.
func (f *pfFunc) freshRoot(sel *ast.SelectorExpr) types.Object {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := f.pkg.Info.ObjectOf(id); f.fresh[obj] {
		return obj
	}
	return nil
}

// guarded reports whether sel selects a guarded Policy field whose memory
// the function does not own.
func (f *pfFunc) guarded(sel *ast.SelectorExpr) bool {
	if !pfFields[fieldKey(f.pkg, sel)] {
		return false
	}
	obj := f.freshRoot(sel)
	return obj == nil || f.unowned[pfField{obj, sel.Sel.Name}]
}

// into returns the guarded field e points into — through parens, slicing
// and aliasing locals — as text for the report, or "".
func (f *pfFunc) into(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return f.into(x.X)
	case *ast.SelectorExpr:
		if f.guarded(x) {
			return types.ExprString(x)
		}
	case *ast.Ident:
		if f.alias[f.pkg.Info.ObjectOf(x)] {
			return x.Name + " (an alias of a policy's field)"
		}
	}
	return ""
}

// findAliases collects the locals bound to a guarded field's memory.
func (f *pfFunc) findAliases() {
	for changed := true; changed; {
		changed = false
		f.assignments(func(obj types.Object, val ast.Expr) {
			if val != nil && !f.alias[obj] && f.local(obj) && f.into(val) != "" {
				f.alias[obj] = true
				changed = true
			}
		})
	}
}

// checkLvalue reports a write through lhs into a guarded field: the field
// itself assigned on a policy the function did not build, or an element
// of its memory written.
func (f *pfFunc) checkLvalue(lhs ast.Expr) {
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && pfFields[fieldKey(f.pkg, sel)] {
		if f.freshRoot(sel) == nil {
			f.pass.Reportf(sel.Pos(),
				"assigns %s on a flow.Policy this function did not build with &flow.Policy{…}; a policy is immutable once built — build a new one",
				types.ExprString(sel))
		}
		return
	}
	for _, layer := range spineOf(f.pkg, lhs).layers {
		ix, ok := layer.(*ast.IndexExpr)
		if !ok {
			continue
		}
		if what := f.into(ix.X); what != "" {
			f.pass.Reportf(lhs.Pos(),
				"writes an element of %s; a policy's List and Types may be shared (Types is the topology's type template) — build a new policy instead",
				what)
			return
		}
	}
}

// checkCall reports append into, copy into and in-place sort/slices
// mutation of a guarded field.
func (f *pfFunc) checkCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	op := builtinName(f.pkg, call.Fun)
	switch op {
	case "append", "copy":
	case "":
		key := resolveCall(f.pkg, call)
		if !pfMutators[key] {
			return
		}
		op = string(key)
	default:
		return
	}
	if what := f.into(call.Args[0]); what != "" {
		f.pass.Reportf(call.Pos(),
			"%s writes into %s; a policy's List and Types may be shared (Types is the topology's type template) — build a new policy instead",
			op, what)
	}
}
