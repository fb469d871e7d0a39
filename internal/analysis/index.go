package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is taalint v2's module-level index: a lightweight call graph
// plus a field-access index built once over every loaded package (the
// dataflow helpers the checks share over it live in flow.go). The
// per-file AST checks of v1 cannot see that a topology mutation three
// calls away fails to bump the liveness version; module checks
// (epochbump) consult this index instead of re-walking the world.
//
// Functions are keyed by strings — "pkg/path.Name" for package functions,
// "pkg/path.(Recv).Name" for methods, pointer receivers normalized away —
// because the loader type-checks each package independently: the
// *types.Func object for netstate.(Oracle).BestRoute seen from a directly
// loaded internal/netstate is NOT identical to the one controller sees
// through the source importer, but both render to the same key.
//
// The call graph is static and best-effort: direct calls and method calls
// with a concrete receiver resolve; calls through interfaces, function
// values and reflection do not. Checks built on it must therefore be
// framed so that an unresolved edge fails safe (see epochbump: an
// unresolved callee is assumed not to mutate, which is sound because the
// mutated fields are unexported and only the monitored packages can touch
// them).

// FuncKey is the stable string identity of a declared function or method.
type FuncKey = string

// CallSite is one resolved static call inside a function body.
type CallSite struct {
	Callee FuncKey
	Pos    token.Pos
}

// FuncInfo describes one declared function: its package, declaration and
// the static calls its body (including nested function literals) makes.
type FuncInfo struct {
	Key   FuncKey
	Pkg   *Package
	Decl  *ast.FuncDecl
	Calls []CallSite
}

// FieldAccess is one syntactic access to a named struct field.
type FieldAccess struct {
	Fn    FuncKey // enclosing declared function ("" at package scope)
	Pkg   *Package
	Pos   token.Pos
	Write bool // the access is (part of) an lvalue being assigned
}

// Index is the module-wide dataflow index shared by all module checks.
type Index struct {
	Pkgs  []*Package
	Funcs map[FuncKey]*FuncInfo
	// Fields maps "owner-pkg-path.StructName.field" to every access of
	// that field anywhere in the module, in load order.
	Fields map[string][]FieldAccess

	// effects is the lazily built v3 write-effect table (effects.go),
	// shared across the checks of one Run.
	effects *Effects
}

// BuildIndex constructs the call graph and field-access index over the
// given packages.
func BuildIndex(pkgs []*Package) *Index {
	idx := &Index{
		Pkgs:   pkgs,
		Funcs:  make(map[FuncKey]*FuncInfo),
		Fields: make(map[string][]FieldAccess),
	}
	forEachFunc(pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		key := declKey(pkg, fd)
		info := &FuncInfo{Key: key, Pkg: pkg, Decl: fd}
		collectCalls(pkg, fd.Body, info)
		collectFieldAccesses(idx, pkg, key, fd.Body)
		// Later declarations never overwrite earlier ones; the loader
		// rejects duplicate top-level names anyway.
		if _, dup := idx.Funcs[key]; !dup && key != "" {
			idx.Funcs[key] = info
		}
	})
	return idx
}

// Func returns the info for a key, or nil when the function is not
// declared in a loaded package (stdlib, unresolved).
func (idx *Index) Func(key FuncKey) *FuncInfo { return idx.Funcs[key] }

// declKey computes the key of a function declaration via its type object.
func declKey(pkg *Package, fd *ast.FuncDecl) FuncKey {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	return funcObjKey(obj)
}

// funcObjKey renders a *types.Func to its stable string key. Interface
// methods and functions without a package (builtins, error.Error) key to
// "" and are treated as unresolved.
func funcObjKey(f *types.Func) FuncKey {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return "" // interface or type-parameter receiver: no static target
		}
		return f.Pkg().Path() + ".(" + named.Obj().Name() + ")." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// resolveCall resolves a call expression to the key of its static callee,
// or "" when the target is dynamic (function value, interface method,
// builtin, conversion).
func resolveCall(p *Package, call *ast.CallExpr) FuncKey {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return funcObjKey(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls resolve to the interface's method
				// object; funcObjKey rejects those (no static target).
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					return ""
				}
				return funcObjKey(f)
			}
			return ""
		}
		// Package-qualified call: pkg.Func.
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return funcObjKey(f)
		}
	}
	return ""
}

// collectCalls records every statically resolvable call under n
// (descending into nested function literals — a call deferred into a
// closure is still a call this function can make).
func collectCalls(pkg *Package, n ast.Node, info *FuncInfo) {
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key := resolveCall(pkg, call); key != "" {
			info.Calls = append(info.Calls, CallSite{Callee: key, Pos: call.Pos()})
		}
		return true
	})
}

// fieldOf resolves a selector expression to the struct field it selects
// and that field's owner key prefix ("ownerPkg.StructName"), or ("", nil)
// for non-field selections.
func fieldOf(p *Package, sel *ast.SelectorExpr) (ownerKey string, field *types.Var) {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return "", nil
	}
	// Owner is the named struct the (possibly embedded) field lives in:
	// walk the selection's receiver down the index path.
	t := s.Recv()
	for _, i := range s.Index() {
		t = derefType(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return "", nil
		}
		f := st.Field(i)
		if f == v {
			name := namedName(derefType(s.Recv()))
			// For embedded chains the precise owner is the embedded struct;
			// using the outermost named type keeps keys stable and is
			// sufficient for the monitored flat structs in this module.
			if name == "" || v.Pkg() == nil {
				return "", nil
			}
			return v.Pkg().Path() + "." + name, v
		}
		t = f.Type()
	}
	name := namedName(derefType(s.Recv()))
	if name == "" || v.Pkg() == nil {
		return "", nil
	}
	return v.Pkg().Path() + "." + name, v
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func namedName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// fieldAccessKey renders a resolved field to its index key.
func fieldAccessKey(ownerKey string, field *types.Var) string {
	return ownerKey + "." + field.Name()
}

// fieldKey is the package-base-qualified key of a field selection
// ("topology.Topology.alive"), the form the checks' tables use, or ""
// for any other selector.
func fieldKey(p *Package, sel *ast.SelectorExpr) string {
	if owner, field := fieldOf(p, sel); field != nil {
		return shortKey(fieldAccessKey(owner, field))
	}
	return ""
}

// collectFieldAccesses walks one function body recording every struct
// field access, classified as a write when the selector appears in the
// lvalue chain of an assignment, IncDec or delete() — t.nodes[i].Capacity
// = x marks both Topology.nodes and Node.Capacity written, because the
// mutation is observable through either — and as a plain read otherwise.
func collectFieldAccesses(idx *Index, pkg *Package, fn FuncKey, body ast.Node) {
	// Pre-pass: mark the written selector nodes, then a single walk emits
	// every field selection with its classification.
	written := make(map[*ast.SelectorExpr]bool)
	markLvalue := func(e ast.Expr) {
		for _, sel := range spineOf(pkg, e).fields() {
			written[sel] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				markLvalue(lhs)
			}
		case *ast.IncDecStmt:
			markLvalue(s.X)
		case *ast.CallExpr:
			if builtinName(pkg, s.Fun) == "delete" && len(s.Args) > 0 {
				markLvalue(s.Args[0])
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ownerKey, field := fieldOf(pkg, sel)
		if field == nil {
			return true
		}
		key := fieldAccessKey(ownerKey, field)
		idx.Fields[key] = append(idx.Fields[key], FieldAccess{
			Fn:    fn,
			Pkg:   pkg,
			Pos:   sel.Sel.Pos(),
			Write: written[sel],
		})
		return true
	})
}

// atomicOperands returns what a sync/atomic call acts on — the receiver
// of a method on an atomic-typed value (o.epoch.Add(1)), or the operand
// of each &-argument of a package function (atomic.AddUint64(&s.seq, 1))
// — and whether the call writes them (Add, And, CompareAndSwap, Or,
// Store, Swap; not Load).
func atomicOperands(p *Package, call *ast.CallExpr) (ops []ast.Expr, writes bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	for _, prefix := range []string{"Add", "And", "CompareAndSwap", "Or", "Store", "Swap"} {
		writes = writes || strings.HasPrefix(sel.Sel.Name, prefix)
	}
	if isAtomicPkgFunc(p, call.Fun) {
		for _, arg := range call.Args {
			if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				ops = append(ops, ue.X)
			}
		}
		return ops, writes
	}
	if isAtomicType(p.Info.TypeOf(sel.X)) {
		return []ast.Expr{sel.X}, writes
	}
	return nil, false
}

// isAtomicPkgFunc reports whether the call target is a package-level
// function of sync/atomic.
func isAtomicPkgFunc(p *Package, fun ast.Expr) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" &&
		f.Type().(*types.Signature).Recv() == nil
}

// shortKey trims the import-path directory from an index key, leaving the
// package-base-qualified form both the real module and fixtures share:
// "repro/internal/topology.(Topology).SetNodeAlive" and
// "fixture/topology.(Topology).SetNodeAlive" both shorten to
// "topology.(Topology).SetNodeAlive". Field keys and import paths shorten
// the same way ("fixture/topology" -> "topology").
func shortKey(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}
