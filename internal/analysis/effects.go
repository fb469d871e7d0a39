package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is taalint v3's interprocedural effects layer: a per-function
// write-effect summary computed once over the module index and shared by
// the purity, publishfreeze and poolescape checks.
//
// For every declared function the engine records
//
//   - Writes: each direct store to a named struct field anywhere in the
//     body, including nested function literals and deferred calls (a write
//     inside a defer or a closure is still a write this function may
//     perform), classified plain vs atomic. Unlike index.go's field-access
//     classification, an atomic mutator called on an ELEMENT reached
//     through a field — o.distRows[src].Store(&d) — is recorded here as an
//     atomic write to the field (distRows), because the effects questions
//     ("does this function mutate oracle state?") care about the spine,
//     not just the exact selector.
//   - FieldWrites: the transitive closure of Writes over the static call
//     graph, iterated to a true fixpoint by the shared set closure
//     (flow.go closeSets; the epochbump interpreter's optimistic busy-map
//     would under-approximate here: a summary consumed mid-cycle must not
//     be frozen before the cycle stabilizes).
//   - ParamWrites: per formal slot (receiver first, then parameters),
//     whether the function may write THROUGH that slot — a deref, index or
//     field store whose lvalue spine is rooted at the formal, directly or
//     via a callee that writes through the matching parameter. Only
//     ident-rooted arguments propagate (x or &x); everything else is
//     invisible, which is the same fail-safe stance index.go takes for
//     dynamic calls.
//
// Unresolved callees (interface methods, function values, stdlib) are
// assumed write-free. That is sound for the monitored state because every
// monitored field is unexported: only module code, which IS indexed, can
// name it.

// WriteEffect is one direct store to a named struct field.
type WriteEffect struct {
	Field  string // full index key: "pkg/path.Struct.field"
	Pos    token.Pos
	Atomic bool // performed through sync/atomic (mutator method or pkg func)
}

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
	Key    FuncKey
	Writes []WriteEffect
	Calls  []effCall
	// FieldWrites is the set of field keys this function may write,
	// directly or transitively through module callees.
	FieldWrites map[string]bool
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
	fe := &FuncEffects{Key: key, FieldWrites: make(map[string]bool)}

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

	// addWrite records a field write for every selection on the lvalue (or
	// receiver) spine, and a param write-through when the spine is
	// non-trivial and rooted at a formal. A trivial spine (`p = x`) rebinds
	// the local and has no external effect.
	addWrite := func(e ast.Expr, atomic bool) {
		sp := spineOf(pkg, e)
		for _, x := range sp.fields() {
			if owner, field := fieldOf(pkg, x); field != nil {
				fe.Writes = append(fe.Writes, WriteEffect{
					Field:  fieldAccessKey(owner, field),
					Pos:    x.Sel.Pos(),
					Atomic: atomic,
				})
			}
		}
		if len(sp.layers) > 0 {
			fe.writeThrough(sp.root)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				addWrite(lhs, false)
			}
		case *ast.IncDecStmt:
			addWrite(s.X, false)
		case *ast.CallExpr:
			if builtinName(pkg, s.Fun) == "delete" && len(s.Args) > 0 {
				addWrite(s.Args[0], false)
			}
			// atomic.StoreUint64(&o.f, x), o.epoch.Add(1),
			// o.distRows[i].Store(&d): an atomic write whose operand spine
			// passes through fields writes them.
			if ops, writes := atomicOperands(pkg, s); writes {
				for _, op := range ops {
					addWrite(op, true)
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

	for _, w := range fe.Writes {
		fe.FieldWrites[w.Field] = true
	}
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

// fixpoint closes FieldWrites over the call graph, then ParamWrites
// through each call's argument bindings: a callee writing through its
// formal i makes the caller write through whichever of its own formals it
// passed in slot i. Both iterate to a true fixpoint, so mutual recursion
// converges.
func (e *Effects) fixpoint() {
	sets := make(map[FuncKey]map[string]bool, len(e.fns))
	callees := make(map[FuncKey][]FuncKey, len(e.fns))
	for k, fe := range e.fns {
		sets[k] = fe.FieldWrites
		for _, c := range fe.Calls {
			callees[k] = append(callees[k], c.Callee)
		}
	}
	closeSets(sets, callees)

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
