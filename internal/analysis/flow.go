package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// This file is the dataflow substrate the module checks share, one
// implementation of each piece:
//
//   - forEachFunc, the loop over every function declaration;
//   - walkBody, a path-sensitive statement walker that owns control flow
//     while each check supplies its lattice and transfer functions;
//   - spineOf, which takes an lvalue apart;
//   - reaches, the expression-taint evaluator over a caller's seed;
//   - Index.flood, the call-graph reachability flood;
//   - builtinName, isNamed, refLike and sortedKeys.

// forEachFunc calls fn for every function declaration with a body, in
// package, file and declaration order.
func forEachFunc(pkgs []*Package, fn func(pkg *Package, fd *ast.FuncDecl)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					fn(pkg, fd)
				}
			}
		}
	}
}

// pathFlow is one check's dataflow problem over the shared walker: its
// lattice (copy, join, exit) and what the statements that carry meaning
// do to a state. Transfer functions may update the state they are given
// in place and return it; the walker copies before a state goes down two
// branches.
type pathFlow[S any] interface {
	copy(st S) S
	// join merges two live paths; it may reuse either argument.
	join(a, b S) S
	// exit records a path leaving the function — a return, a builtin
	// panic or the end of the body — with the defers st has registered
	// still to run.
	exit(st S)
	// stmt applies a simple statement: an assignment, expression,
	// inc/dec, send, declaration, go, goto or fallthrough statement.
	stmt(s ast.Stmt, st S) S
	// expr applies an expression the walker evaluates: an if or loop
	// condition, a switch tag, a range operand or a return result.
	expr(e ast.Expr, st S) S
	// deferred registers a defer statement.
	deferred(d *ast.DeferStmt, st S) S
}

// walkBody walks one function body from entry under one set of
// control-flow rules:
//
//   - blocks and labeled statements run their statements in order;
//   - if joins the then branch with the else branch or the skip path;
//   - for and range walk the body twice — from the entry state, then from
//     the first pass's end — and join both with the zero-trip path; a for
//     loop's post statement and condition follow each pass;
//   - switch and type switch join their clauses, plus a fall-past path
//     only when there is no default;
//   - select runs each clause's comm statement, then its body, and never
//     falls past;
//   - break, plain or labeled, ends its path and joins the exit of its
//     loop, switch or select; continue ends its path and joins the end of
//     its loop's pass, before the post statement and condition;
//   - return and builtin panic exit with the defers registered on their
//     path and end it, so statements after them are dead;
//   - go, goto, fallthrough and every other simple statement go to the
//     check's stmt transfer and do not move control; function literals
//     are never walked inline.
//
// The end of the body, when reachable, is an exit too.
func walkBody[S any](pkg *Package, f pathFlow[S], body *ast.BlockStmt, entry S) {
	if st, live := (&walker[S]{pkg: pkg, f: f}).list(body.List, entry); live {
		f.exit(st)
	}
}

type walker[S any] struct {
	pkg *Package
	f   pathFlow[S]
	// frames are the enclosing break and continue targets, innermost
	// last; label is the label of the statement about to be walked.
	frames []*jumpFrame[S]
	label  string
}

// jumpFrame is one loop, switch or select that break (and, for a loop,
// continue) can leave: the states of the paths that jumped to its exit
// and to the end of its current pass.
type jumpFrame[S any] struct {
	label             string
	loop              bool
	brk, cont         S
	brkLive, contLive bool
}

// list walks statements in order; live is false once the path has ended.
func (w *walker[S]) list(list []ast.Stmt, st S) (_ S, live bool) {
	for _, s := range list {
		if st, live = w.stmt(s, st); !live {
			return st, false
		}
	}
	return st, true
}

// join merges two paths, either of which may have ended.
func (w *walker[S]) join(a S, aLive bool, b S, bLive bool) (S, bool) {
	switch {
	case aLive && bLive:
		return w.f.join(a, b), true
	case aLive:
		return a, true
	}
	return b, bLive
}

func (w *walker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	f := w.f
	label := w.label
	w.label = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.list(s.List, st)
	case *ast.LabeledStmt:
		w.label = s.Label.Name
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = f.stmt(s.Init, st)
		}
		st = f.expr(s.Cond, st)
		then, thenLive := w.list(s.Body.List, f.copy(st))
		els, elsLive := st, true
		if s.Else != nil {
			els, elsLive = w.stmt(s.Else, st)
		}
		return w.join(then, thenLive, els, elsLive)
	case *ast.ForStmt:
		if s.Init != nil {
			st = f.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = f.expr(s.Cond, st)
		}
		return w.loop(label, st, s.Body, func(st S) S {
			if s.Post != nil {
				st = f.stmt(s.Post, st)
			}
			if s.Cond != nil {
				st = f.expr(s.Cond, st)
			}
			return st
		})
	case *ast.RangeStmt:
		return w.loop(label, f.expr(s.X, st), s.Body, func(st S) S { return st })
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = f.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = f.expr(s.Tag, st)
		}
		return w.clauses(label, s.Body, st, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = f.stmt(s.Init, st)
		}
		return w.clauses(label, s.Body, f.stmt(s.Assign, st), true)
	case *ast.SelectStmt:
		return w.clauses(label, s.Body, st, false)
	case *ast.BranchStmt:
		if fr := w.target(s); fr != nil {
			if s.Tok == token.BREAK {
				fr.brk, fr.brkLive = w.join(fr.brk, fr.brkLive, st, true)
			} else {
				fr.cont, fr.contLive = w.join(fr.cont, fr.contLive, st, true)
			}
			return st, false
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = f.expr(r, st)
		}
		f.exit(st)
		return st, false
	case *ast.DeferStmt:
		return f.deferred(s, st), true
	case *ast.ExprStmt:
		st = f.stmt(s, st)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && builtinName(w.pkg, call.Fun) == "panic" {
			f.exit(st)
			return st, false
		}
		return st, true
	}
	return f.stmt(s, st), true
}

// target returns the frame a break or continue jumps to: the one its
// label names, else the innermost frame (a loop, for continue). Goto and
// fallthrough have none.
func (w *walker[S]) target(s *ast.BranchStmt) *jumpFrame[S] {
	if s.Tok != token.BREAK && s.Tok != token.CONTINUE {
		return nil
	}
	for i := len(w.frames) - 1; i >= 0; i-- {
		fr := w.frames[i]
		if s.Label != nil {
			if fr.label == s.Label.Name {
				return fr
			}
		} else if s.Tok == token.BREAK || fr.loop {
			return fr
		}
	}
	return nil
}

// push opens a jump frame for the statement being walked; pop closes it
// and joins the paths that broke out of it into the statement's exit.
func (w *walker[S]) push(label string, loop bool) *jumpFrame[S] {
	fr := &jumpFrame[S]{label: label, loop: loop}
	w.frames = append(w.frames, fr)
	return fr
}

func (w *walker[S]) pop(fr *jumpFrame[S], st S, live bool) (S, bool) {
	w.frames = w.frames[:len(w.frames)-1]
	return w.join(st, live, fr.brk, fr.brkLive)
}

// loop walks a loop body twice — from st, then from the first pass's
// end — and joins both passes with the zero-trip path st. A pass ends
// where the body falls off or continues, and then runs next.
func (w *walker[S]) loop(label string, st S, body *ast.BlockStmt, next func(S) S) (S, bool) {
	fr := w.push(label, true)
	pass := func(st S) (S, bool) {
		st, live := w.list(body.List, st)
		st, live = w.join(st, live, fr.cont, fr.contLive)
		var zero S
		fr.cont, fr.contLive = zero, false
		if live {
			st = next(st)
		}
		return st, live
	}
	out, live := st, true
	if once, onceLive := pass(w.f.copy(st)); onceLive {
		twice, twiceLive := pass(w.f.copy(once))
		out, live = w.join(w.f.join(st, once), true, twice, twiceLive)
	}
	return w.pop(fr, out, live)
}

// clauses walks every case or comm clause from st and joins them. A
// switch without a default also falls past every case; a select never
// does.
func (w *walker[S]) clauses(label string, body *ast.BlockStmt, st S, isSwitch bool) (S, bool) {
	fr := w.push(label, false)
	var out S
	live, fallPast := false, isSwitch
	for _, c := range body.List {
		br := w.f.copy(st)
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			fallPast = fallPast && c.List != nil
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				br = w.f.stmt(c.Comm, br)
			}
			list = c.Body
		}
		br, brLive := w.list(list, br)
		out, live = w.join(out, live, br, brLive)
	}
	if fallPast {
		out, live = w.join(out, live, st, true)
	}
	return w.pop(fr, out, live)
}

// lvalueSpine is an lvalue (or a call receiver) taken apart: the layers
// it writes through, outermost first — each a *ast.StarExpr,
// *ast.IndexExpr, *ast.SliceExpr or a field *ast.SelectorExpr — and what
// it bottoms out in: a variable, a call (o.DistRow(2)[0] = x) or neither.
type lvalueSpine struct {
	layers []ast.Expr
	root   types.Object
	call   *ast.CallExpr
}

// spineOf takes e apart. A package-qualified variable (pkg.V) is a root
// like a local one; a method value has no root.
func spineOf(pkg *Package, e ast.Expr) lvalueSpine {
	var sp lvalueSpine
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.StarExpr:
			sp.layers, e = append(sp.layers, x), x.X
		case *ast.IndexExpr:
			sp.layers, e = append(sp.layers, x), x.X
		case *ast.SliceExpr:
			sp.layers, e = append(sp.layers, x), x.X
		case *ast.SelectorExpr:
			s, ok := pkg.Info.Selections[x]
			if !ok {
				sp.root = pkg.Info.ObjectOf(x.Sel)
				return sp
			}
			if s.Kind() != types.FieldVal {
				return sp
			}
			sp.layers, e = append(sp.layers, x), x.X
		case *ast.Ident:
			sp.root = pkg.Info.ObjectOf(x)
			return sp
		case *ast.CallExpr:
			sp.call = x
			return sp
		default:
			return sp
		}
	}
}

// fields returns the spine's field selections, outermost first.
func (sp lvalueSpine) fields() []*ast.SelectorExpr {
	var out []*ast.SelectorExpr
	for _, l := range sp.layers {
		if sel, ok := l.(*ast.SelectorExpr); ok {
			out = append(out, sel)
		}
	}
	return out
}

// reaches reports whether the value of e is drawn from memory the seed
// marks. seed is asked at every node first; otherwise taint follows the
// value through parens, derefs, address-of, indexing, slicing, selectors,
// type assertions, composite-literal elements, conversions, append's
// first argument and the reference-like arguments of any other call
// (which may return a view of them). Other builtins return fresh values.
func reaches(pkg *Package, e ast.Expr, seed func(ast.Expr) bool) bool {
	if seed(e) {
		return true
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return reaches(pkg, x.X, seed)
	case *ast.StarExpr:
		return reaches(pkg, x.X, seed)
	case *ast.UnaryExpr:
		return x.Op == token.AND && reaches(pkg, x.X, seed)
	case *ast.IndexExpr:
		return reaches(pkg, x.X, seed)
	case *ast.SliceExpr:
		return reaches(pkg, x.X, seed)
	case *ast.SelectorExpr:
		return reaches(pkg, x.X, seed)
	case *ast.TypeAssertExpr:
		return reaches(pkg, x.X, seed)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if reaches(pkg, el, seed) {
				return true
			}
		}
	case *ast.CallExpr:
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
			return len(x.Args) == 1 && reaches(pkg, x.Args[0], seed)
		}
		switch builtinName(pkg, x.Fun) {
		case "":
		case "append":
			return len(x.Args) > 0 && reaches(pkg, x.Args[0], seed)
		default:
			return false
		}
		for _, a := range x.Args {
			if reaches(pkg, a, seed) && refLike(pkg.Info.TypeOf(a)) {
				return true
			}
		}
	}
	return false
}

// carries reports whether e's value can hold a reference into memory the
// seed marks: it reaches that memory and its type is reference-like
// (reading a scalar element launders the taint).
func carries(pkg *Package, e ast.Expr, seed func(ast.Expr) bool) bool {
	return reaches(pkg, e, seed) && refLike(pkg.Info.TypeOf(e))
}

// refLike reports whether a value of type t can carry a reference:
// pointers, slices, maps, channels, functions, interfaces and aggregates
// containing one. Strings are immutable and count as scalars.
func refLike(t types.Type) bool {
	seen := make(map[types.Type]bool)
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
			return true
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return walk(u.Elem())
		}
		return false
	}
	return walk(t)
}

// flood returns every function reachable over the static call graph
// from seeds, the seeds included; an unresolved or external function is
// reached but calls nothing.
func (idx *Index) flood(seeds []FuncKey) map[FuncKey]bool {
	seen := make(map[FuncKey]bool)
	var order []FuncKey
	visit := func(fn FuncKey) {
		if !seen[fn] && fn != "" {
			seen[fn] = true
			order = append(order, fn)
		}
	}
	for _, fn := range seeds {
		visit(fn)
	}
	for i := 0; i < len(order); i++ {
		if info := idx.Funcs[order[i]]; info != nil {
			for _, c := range info.Calls {
				visit(c.Callee)
			}
		}
	}
	return seen
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// builtinName returns the name of the Go builtin fun refers to (append,
// delete, make, panic, ...), or "" when fun is anything else, including a
// declaration that shadows a builtin.
func builtinName(pkg *Package, fun ast.Expr) string {
	if id, ok := ast.Unparen(fun).(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return id.Name
		}
	}
	return ""
}

// isNamed reports whether t, or the type t points to, is a named type
// declared in the package at path with one of names (any name when names
// is empty).
func isNamed(t types.Type, path string, names ...string) bool {
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != path {
		return false
	}
	return len(names) == 0 || slices.Contains(names, named.Obj().Name())
}

// isAtomicType reports whether t is one of sync/atomic's named types
// (Bool, Int32..Uint64, Uintptr, Pointer[T], Value).
func isAtomicType(t types.Type) bool { return isNamed(t, "sync/atomic") }
