package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is taalint v3's interprocedural effects layer: a per-function
// summary computed once over the module index and read by snapshotfreeze.
//
// For every declared function the engine records
//
//   - Calls: each statically resolvable call with its ident-rooted
//     argument bindings;
//   - ParamWrites: per formal slot (receiver first, then parameters),
//     whether the function may write THROUGH that slot — a deref, index or
//     field store (or a sync/atomic mutation) whose lvalue spine is rooted
//     at the formal, including inside nested function literals and
//     deferred calls, directly or via a callee that writes through the
//     matching parameter. Only ident-rooted arguments propagate (x or &x);
//     everything else is invisible, which is the same fail-safe stance
//     index.go takes for dynamic calls.
//
// Unresolved callees (interface methods, function values, stdlib) are
// assumed write-free.

// effCall is one resolvable call site with its ident-rooted argument
// bindings: Args[i] is the types.Object passed in the callee's formal slot
// i (receiver = 0 for methods), or nil when the argument is not a plain
// ident / &ident.
type effCall struct {
	Callee FuncKey
	Pos    token.Pos
	Args   []types.Object
}

// FuncEffects is the write-effect summary of one declared function.
type FuncEffects struct {
	Key   FuncKey
	Calls []effCall
	// ParamWrites[i] reports a possible write through formal slot i
	// (receiver first). Slots without a name are tracked but never match.
	ParamWrites []bool

	formals []types.Object // formal slot objects, receiver first
}

// Effects is the module-wide effects table.
type Effects struct {
	fns map[FuncKey]*FuncEffects
}

// Effects returns the lazily built effects table shared by all checks of
// one Run.
func (idx *Index) Effects() *Effects {
	if idx.effects == nil {
		idx.effects = buildEffects(idx)
	}
	return idx.effects
}

// Of returns the summary for a key, or nil for unresolved functions.
func (e *Effects) Of(key FuncKey) *FuncEffects { return e.fns[key] }

func buildEffects(idx *Index) *Effects {
	e := &Effects{fns: make(map[FuncKey]*FuncEffects, len(idx.Funcs))}
	for key, info := range idx.Funcs {
		e.fns[key] = collectEffects(info.Pkg, key, info.Decl)
	}
	e.fixpoint()
	return e
}

// collectEffects gathers the direct (intraprocedural) summary of one
// function declaration.
func collectEffects(pkg *Package, key FuncKey, fd *ast.FuncDecl) *FuncEffects {
	fe := &FuncEffects{Key: key}

	// Formal slots: receiver first, then parameters (variadic included).
	addFormal := func(names []*ast.Ident) {
		if len(names) == 0 {
			fe.formals = append(fe.formals, nil) // unnamed slot
			return
		}
		for _, n := range names {
			fe.formals = append(fe.formals, pkg.Info.Defs[n])
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		addFormal(fd.Recv.List[0].Names)
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			addFormal(f.Names)
		}
	}
	fe.ParamWrites = make([]bool, len(fe.formals))

	// addWrite records a param write-through when the lvalue (or
	// receiver) spine is non-trivial and rooted at a formal. A trivial
	// spine (`p = x`) rebinds the local and has no external effect.
	addWrite := func(e ast.Expr) {
		if sp := spineOf(pkg, e); len(sp.layers) > 0 {
			fe.writeThrough(sp.root)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				addWrite(lhs)
			}
		case *ast.IncDecStmt:
			addWrite(s.X)
		case *ast.CallExpr:
			if builtinName(pkg, s.Fun) == "delete" && len(s.Args) > 0 {
				addWrite(s.Args[0])
			}
			// atomic.StoreInt32(&row[0], x), p.n.Add(1): an atomic
			// mutation writes through its operand's spine.
			if ops, writes := atomicOperands(pkg, s); writes {
				for _, op := range ops {
					addWrite(op)
				}
			}
			// Record ident-rooted argument bindings for resolvable calls.
			if callee := resolveCall(pkg, s); callee != "" {
				fe.Calls = append(fe.Calls, effCall{
					Callee: callee,
					Pos:    s.Pos(),
					Args:   callArgObjects(pkg, s),
				})
			}
		}
		return true
	})
	return fe
}

// callArgObjects maps a call's arguments onto the callee's formal slots:
// slot 0 is the receiver for method calls. Only plain idents and &ident
// arguments resolve to objects; everything else is nil.
func callArgObjects(pkg *Package, call *ast.CallExpr) []types.Object {
	var args []types.Object
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			args = append(args, rootIdentObject(pkg, sel.X))
		}
	}
	for _, a := range call.Args {
		args = append(args, rootIdentObject(pkg, a))
	}
	return args
}

// rootIdentObject returns the object of a plain ident or &ident argument,
// or nil for anything else (a field selector, call result, literal...).
func rootIdentObject(pkg *Package, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return pkg.Info.ObjectOf(id)
	}
	return nil
}

// fixpoint closes ParamWrites through each call's argument bindings: a
// callee writing through its formal i makes the caller write through
// whichever of its own formals it passed in slot i. It iterates to a true
// fixpoint, so mutual recursion converges.
func (e *Effects) fixpoint() {
	keys := sortedKeys(e.fns)
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			fe := e.fns[k]
			for _, c := range fe.Calls {
				callee := e.fns[c.Callee]
				if callee == nil {
					continue // unresolved or external: assumed write-free
				}
				for i, obj := range c.Args {
					if i < len(callee.ParamWrites) && callee.ParamWrites[i] && fe.writeThrough(obj) {
						changed = true
					}
				}
			}
		}
	}
}

// writeThrough marks every formal slot bound to obj written through,
// reporting whether that is new.
func (fe *FuncEffects) writeThrough(obj types.Object) (changed bool) {
	for i, f := range fe.formals {
		if f != nil && f == obj && !fe.ParamWrites[i] {
			fe.ParamWrites[i] = true
			changed = true
		}
	}
	return changed
}

// WritesThroughArg reports whether the call may write through the given
// argument object: some formal slot bound to obj has ParamWrites set in
// the callee's summary. Unknown callees report false (fail-safe for
// monitored unexported state, see package comment).
func (e *Effects) WritesThroughArg(c effCall, obj types.Object) bool {
	callee := e.fns[c.Callee]
	if callee == nil || obj == nil {
		return false
	}
	for i, a := range c.Args {
		if a == obj && i < len(callee.ParamWrites) && callee.ParamWrites[i] {
			return true
		}
	}
	return false
}
