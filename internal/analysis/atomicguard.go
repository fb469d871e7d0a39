package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicGuard enforces the module's two concurrency disciplines:
//
//  1. Atomic exclusivity (module-wide): a struct field accessed through
//     sync/atomic anywhere — atomic.AddUint64(&o.seq, 1), or a method on
//     an atomic-typed field like o.epoch.Add(1) — may not be read or
//     written plainly anywhere else. Mixed access is a data race the race
//     detector only catches when the schedule cooperates; the index sees
//     every access site at once. (Element-wise atomics through a slice of
//     atomic.Pointer do not mark the slice header itself: the header is
//     plain data guarded by its own discipline.)
//
//  2. Stripe-lock discipline (netstate only): the pair-route cache and the
//     oracle's structure caches are maps guarded by mutexes declared in
//     the same struct. Any access to such a map must be preceded, in the
//     enclosing function, by a Lock/RLock call rooted at the same
//     variable. Functions named *Locked (callee holds the lock by
//     contract) and maps freshly created in the function (make/composite
//     literal locals, invisible to other goroutines until published) are
//     exempt.
//
// Rule 2 is syntactic and function-local by design: it does not prove the
// lock is HELD at the access (no unlock tracking), it proves the author
// thought about the lock at all — which is the failure mode the PR-3
// review actually caught (a fast-path read added above the RLock).
type AtomicGuard struct{}

// Name implements Check.
func (AtomicGuard) Name() string { return "atomicguard" }

// Doc implements Check.
func (AtomicGuard) Doc() string {
	return "fields accessed via sync/atomic must never be accessed plainly; netstate's mutex-guarded maps must be accessed under their mutex"
}

// RunModule implements ModuleCheck.
func (AtomicGuard) RunModule(mp *ModulePass) {
	// Rule 1: atomic exclusivity over the field-access index.
	for _, k := range sortedKeys(mp.Index.Fields) {
		accesses := mp.Index.Fields[k]
		hasAtomic := false
		for _, a := range accesses {
			if a.Atomic {
				hasAtomic = true
				break
			}
		}
		if !hasAtomic {
			continue
		}
		for _, a := range accesses {
			if a.Atomic {
				continue
			}
			kind := "read"
			if a.Write {
				kind = "write"
			}
			mp.Reportf(a.Pkg, a.Pos,
				"plain %s of field %s, which is accessed via sync/atomic elsewhere; use the atomic API at every site",
				kind, shortKey(k))
		}
	}

	// Rule 2: stripe/structure-lock discipline in netstate packages.
	for _, pkg := range mp.Pkgs {
		if pkg.Base() != "netstate" {
			continue
		}
		guarded := guardedMapFields(pkg)
		if len(guarded) == 0 {
			continue
		}
		forEachFunc([]*Package{pkg}, func(pkg *Package, fd *ast.FuncDecl) {
			if !strings.HasSuffix(fd.Name.Name, "Locked") {
				checkLockDiscipline(mp, pkg, fd, guarded)
			}
		})
	}
}

// guardedMapFields returns the *types.Var set of map fields declared in
// structs that also declare a sync.Mutex or sync.RWMutex field.
func guardedMapFields(pkg *Package) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			obj, ok := pkg.Info.Defs[ts.Name]
			if !ok || obj == nil {
				return true
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				return true
			}
			hasMutex := false
			for i := 0; i < st.NumFields(); i++ {
				if isMutexType(st.Field(i).Type()) {
					hasMutex = true
					break
				}
			}
			if !hasMutex {
				return true
			}
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if _, isMap := fld.Type().Underlying().(*types.Map); isMap {
					out[fld] = true
				}
			}
			return true
		})
	}
	return out
}

// checkLockDiscipline walks one function (nested literals included — the
// routeInit Once closure is the same critical region) and reports guarded
// map accesses not preceded by a Lock/RLock rooted at the same variable.
func checkLockDiscipline(mp *ModulePass, pkg *Package, fd *ast.FuncDecl, guarded map[*types.Var]bool) {
	// Pass 1: fresh locals (maps/structs created here are unpublished) and
	// the first Lock/RLock position per root object.
	fresh := make(map[types.Object]bool)
	firstLock := make(map[types.Object]token.Pos)
	ast.Inspect(fd, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				return true
			}
			if len(s.Rhs) != len(s.Lhs) {
				return true // multi-value call: never make/new/composite
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if isFreshExpr(pkg, s.Rhs[i]) {
					if obj := pkg.Info.Defs[id]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "Lock" && name != "RLock" {
				return true
			}
			if !isMutexType(receiverType(pkg, sel)) {
				return true
			}
			root := spineOf(pkg, unwrapAddr(sel.X)).root
			if first, seen := firstLock[root]; root != nil && (!seen || s.Pos() < first) {
				firstLock[root] = s.Pos()
			}
		}
		return true
	})

	// Pass 2: guarded map accesses.
	ast.Inspect(fd, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal || !guarded[s.Obj().(*types.Var)] {
			return true
		}
		root := spineOf(pkg, unwrapAddr(sel.X)).root
		if first, locked := firstLock[root]; root == nil || fresh[root] || locked && first < sel.Pos() {
			return true
		}
		v := s.Obj()
		mp.Reportf(pkg, sel.Sel.Pos(),
			"access to mutex-guarded map %s without an earlier Lock/RLock on %s in this function (suffix the function with Locked if the caller holds it)",
			v.Name(), root.Name())
		return true
	})
}

// receiverType returns the type of a method call's receiver expression.
func receiverType(pkg *Package, sel *ast.SelectorExpr) types.Type {
	if s, ok := pkg.Info.Selections[sel]; ok {
		return s.Recv()
	}
	return pkg.Info.TypeOf(sel.X)
}

// isFreshExpr reports whether rhs creates a value invisible to other
// goroutines: make(), a composite literal, its address, or new().
func isFreshExpr(pkg *Package, rhs ast.Expr) bool {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		b := builtinName(pkg, x.Fun)
		return b == "make" || b == "new"
	}
	return false
}
