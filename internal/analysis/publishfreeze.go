package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// publishfreeze: a value stored through atomic.Pointer[T].Store (or
// sync/atomic's *Pointer functions) must be provably unwritten afterwards
// by the storing function and everything it calls.
//
// The oracle's lock-free read side works by publish-then-never-touch:
// swdist tables, DistRows and pair-route slots are built privately, then
// installed with one atomic pointer store. A write AFTER the store — even
// a "harmless" patch-up of one row — is visible to concurrent readers
// mid-flight and is exactly the race the PR-6 dense/striped route cache
// design forbids. The discipline is invisible to the compiler; this check
// makes it structural.
//
// Per function, the check finds every atomic-pointer publish whose stored
// value is rooted at a trackable object (a plain ident or &ident; nil and
// freshly allocated composite-literal addresses have nothing to track),
// widens the root to its flow-insensitive copy-alias set, then flags:
//
//   - any write THROUGH an alias after the store (index/deref/field
//     stores, atomic mutators, delete),
//   - any later call passing an alias to a module function that writes
//     through the corresponding parameter (effects.go ParamWrites),
//   - loop wraparound: when the published object is declared outside the
//     innermost loop containing the store, writes textually before the
//     store but inside that loop happen after it on the next iteration.
//
// Rebinding the local (`v = other`) is not a write to the published
// value; `v = append(v, x)` only writes at or past the published header's
// length and is likewise allowed. Calls with untrackable arguments and
// unresolved callees are assumed write-free — the same fail-safe stance
// as the rest of the index (monitored tables are unexported).

// PublishFreeze is the v3 write-after-publish check.
type PublishFreeze struct{}

// Name implements Check.
func (PublishFreeze) Name() string { return "publishfreeze" }

// Doc implements Check.
func (PublishFreeze) Doc() string {
	return "values published through atomic.Pointer stores must not be written afterwards"
}

// RunModule implements ModuleCheck.
func (PublishFreeze) RunModule(mp *ModulePass) {
	eff := mp.Index.Effects()
	forEachFunc(mp.Pkgs, func(pkg *Package, fd *ast.FuncDecl) { pfCheckFunc(mp, eff, pkg, fd) })
}

// pfPublish is one atomic-pointer store with a trackable stored root.
type pfPublish struct {
	pos token.Pos
	obj types.Object
}

// pfEvent is one potential mutation of an object after a publish.
type pfEvent struct {
	pos  token.Pos
	obj  types.Object
	what string
}

func pfCheckFunc(mp *ModulePass, eff *Effects, pkg *Package, fd *ast.FuncDecl) {
	var (
		publishes []pfPublish
		events    []pfEvent
		loops     [][2]token.Pos // (Pos, End) of every for/range statement
		aliases   = make(map[types.Object][]types.Object)
	)

	addAlias := func(a, b types.Object) {
		if a == nil || b == nil || a == b {
			return
		}
		aliases[a] = append(aliases[a], b)
		aliases[b] = append(aliases[b], a)
	}

	// A write event needs a spine that writes through its root: a trivial
	// spine rebinds the variable instead of mutating the referent.
	addWriteEvent := func(lv ast.Expr, what string, pos token.Pos) {
		if sp := spineOf(pkg, lv); sp.root != nil && len(sp.layers) > 0 {
			events = append(events, pfEvent{pos: pos, obj: sp.root, what: what + " of " + sp.root.Name()})
		}
	}

	// aliasable: copying a value of this type shares its backing.
	aliasable := func(t types.Type) bool {
		if t == nil {
			return false
		}
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
			return true
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, [2]token.Pos{s.Pos(), s.End()})
		case *ast.RangeStmt:
			loops = append(loops, [2]token.Pos{s.Pos(), s.End()})
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				// `v = append(v, x)` rebinds; writes land at/past the
				// published header's length and are not visible through it.
				if i < len(s.Rhs) {
					if call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr); ok && builtinName(pkg, call.Fun) == "append" {
						if lo := spineOf(pkg, lhs); lo.root != nil && len(lo.layers) == 0 {
							// The result may share arg0's backing within
							// its capacity: keep the alias.
							if len(call.Args) > 0 {
								addAlias(lo.root, spineOf(pkg, call.Args[0]).root)
							}
							continue
						}
					}
				}
				addWriteEvent(lhs, "assignment", lhs.Pos())
				// Copy-aliasing: lhs and the rhs chain root refer to the
				// same backing when the copied value is reference-like.
				if lo := spineOf(pkg, lhs); i < len(s.Rhs) && lo.root != nil && len(lo.layers) == 0 && aliasable(pkg.Info.TypeOf(lhs)) {
					addAlias(lo.root, spineOf(pkg, unwrapAddr(s.Rhs[i])).root)
				}
			}
		case *ast.IncDecStmt:
			addWriteEvent(s.X, "increment", s.X.Pos())
		case *ast.CallExpr:
			if builtinName(pkg, s.Fun) == "delete" && len(s.Args) > 0 {
				addWriteEvent(s.Args[0], "delete", s.Pos())
			}
			// Publish sites: the stored argument of atomic.Pointer's
			// Store/Swap/CompareAndSwap and of the StorePointer family.
			// Every other atomic write mutates its operands.
			if mSel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				stored := -1
				if isNamed(pkg.Info.TypeOf(mSel.X), "sync/atomic", "Pointer") {
					switch mSel.Sel.Name {
					case "Store", "Swap":
						stored = 0
					case "CompareAndSwap":
						stored = len(s.Args) - 1
					}
				} else if ops, writes := atomicOperands(pkg, s); writes {
					for _, op := range ops {
						addWriteEvent(op, "atomic mutation", s.Pos())
					}
					switch mSel.Sel.Name {
					case "StorePointer", "SwapPointer":
						stored = 1
					case "CompareAndSwapPointer":
						stored = 2
					}
				}
				if stored >= 0 && stored < len(s.Args) {
					if obj := rootIdentObject(pkg, s.Args[stored]); obj != nil {
						publishes = append(publishes, pfPublish{pos: s.Pos(), obj: obj})
					}
				}
			}
			// A later call that writes through an argument mutates it.
			if callee := resolveCall(pkg, s); callee != "" {
				c := effCall{Callee: callee, Pos: s.Pos(), Args: callArgObjects(pkg, s)}
				for _, obj := range c.Args {
					if obj != nil && eff.WritesThroughArg(c, obj) {
						events = append(events, pfEvent{
							pos: s.Pos(), obj: obj,
							what: obj.Name() + " passed to " + shortKey(callee) + ", which writes through it,",
						})
					}
				}
			}
		}
		return true
	})

	if len(publishes) == 0 {
		return
	}

	// aliasSet: flow-insensitive closure of copy edges from the root.
	aliasSet := func(root types.Object) map[types.Object]bool {
		set := map[types.Object]bool{root: true}
		queue := []types.Object{root}
		for len(queue) > 0 {
			o := queue[0]
			queue = queue[1:]
			for _, nb := range aliases[o] {
				if !set[nb] {
					set[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		return set
	}

	for _, pub := range publishes {
		set := aliasSet(pub.obj)
		// Innermost loop enclosing the store, if any.
		var loop *[2]token.Pos
		for i := range loops {
			l := &loops[i]
			if l[0] <= pub.pos && pub.pos < l[1] {
				if loop == nil || (l[0] >= loop[0] && l[1] <= loop[1]) {
					loop = l
				}
			}
		}
		// Fresh-per-iteration objects (declared inside the loop) cannot be
		// written "before" their own store by wraparound.
		wraparound := loop != nil && !(loop[0] <= pub.obj.Pos() && pub.obj.Pos() < loop[1])
		storeLine := pkg.Fset.Position(pub.pos).Line
		for _, ev := range events {
			if !set[ev.obj] {
				continue
			}
			after := ev.pos > pub.pos ||
				(wraparound && loop[0] <= ev.pos && ev.pos < loop[1])
			if !after {
				continue
			}
			mp.Reportf(pkg, ev.pos,
				"%s after it was published via atomic store at line %d; published values must be immutable — build fully, then store",
				ev.what, storeLine)
		}
	}
}

// unwrapAddr strips a leading &.
func unwrapAddr(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		return ue.X
	}
	return e
}
