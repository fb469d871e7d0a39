package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for ... range m` over a map in a decision package (core,
// scheduler, controller, stablematch, sim, yarn, experiments) unless the
// loop is provably iteration-order independent. Go randomizes map
// iteration order per run, so any decision that observes it — tie-breaks,
// float accumulation, first-match selection — destroys the seeded
// reproducibility the paper's figures depend on.
//
// A map-range loop is accepted without a suppression when one of these
// holds:
//
//   - Collect-then-sort: the body appends keys/values to slices and every
//     such slice is passed to a sort.* / slices.Sort* call later in the
//     same function. This is the idiomatic deterministic-iteration pattern.
//   - Commutative accumulation: every statement — recursing through if,
//     block and nested loop bodies — is an increment/decrement or a += /
//     -= / |= / &= / ^= on an integer-typed lvalue, a fresh short variable
//     declaration, or a continue. Integer reduction is order-independent;
//     float reduction is NOT (rounding depends on order) and stays
//     flagged, as do break/return (first-match selection observes order).
//   - Keyed map writes: statements of the form m2[k] = v, m2[k] op= v or
//     delete(m2, k) where k is exactly the loop's key variable. Distinct
//     keys commute.
//
// Anything else needs a deterministic rewrite or a
// `//taalint:maporder <reason>` annotation.
type MapOrder struct{}

// Name implements Check.
func (MapOrder) Name() string { return "maporder" }

// Doc implements Check.
func (MapOrder) Doc() string {
	return "map-range loops in decision packages must feed a deterministic sort or carry a suppression"
}

// Run implements Check.
func (MapOrder) Run(p *Pass) {
	if !decisionPackages[p.Pkg.Base()] {
		return
	}
	forEachFunc([]*Package{p.Pkg}, func(_ *Package, fd *ast.FuncDecl) {
		mapOrderFunc(p, fd.Body)
	})
}

// mapOrderFunc inspects one function body. fnBody is the scope searched
// for post-loop sort calls.
func mapOrderFunc(p *Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		// Function literals get their own scope so a sort inside a
		// closure doesn't whitelist a loop outside it and vice versa.
		if fl, ok := n.(*ast.FuncLit); ok {
			mapOrderFunc(p, fl.Body)
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if mapRangeOK(p, rs, fnBody) {
			return true
		}
		p.Reportf(rs.For,
			"range over %s is map-iteration-order dependent; collect keys and sort, or annotate //taalint:maporder",
			typeString(t))
		return true
	})
}

func typeString(t types.Type) string {
	s := t.String()
	if len(s) > 40 {
		return "map"
	}
	return s
}

// mapRangeOK reports whether the loop matches one of the whitelisted
// order-independent shapes.
func mapRangeOK(p *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	keyObj := identObj(p, rs.Key)
	appendTargets := make(map[types.Object]bool)
	if !commutativeStmts(p, rs.Body.List, keyObj, appendTargets) {
		return false
	}
	// Collect-then-sort: every appended slice must be sorted after the
	// loop within the same function body. (Append order itself is the map
	// order; only a later sort erases it.)
	for obj := range appendTargets {
		if !sortedAfter(p, fnBody, rs.End(), obj) {
			return false
		}
	}
	return true
}

// commutativeStmts reports whether every statement in the list is
// order-independent across iterations, recursing into nested control flow.
func commutativeStmts(p *Pass, stmts []ast.Stmt, keyObj types.Object, appendTargets map[types.Object]bool) bool {
	for _, stmt := range stmts {
		if !commutativeStmt(p, stmt, keyObj, appendTargets) {
			return false
		}
	}
	return true
}

func commutativeStmt(p *Pass, stmt ast.Stmt, keyObj types.Object, appendTargets map[types.Object]bool) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return isIntegerExpr(p, s.X)
	case *ast.AssignStmt:
		return commutativeAssign(p, s, keyObj, appendTargets)
	case *ast.ExprStmt:
		// delete(m2, k) commutes when k is the loop key.
		return isKeyedDelete(p, s.X, keyObj)
	case *ast.IfStmt:
		if s.Init != nil && !commutativeStmt(p, s.Init, keyObj, appendTargets) {
			return false
		}
		if !commutativeStmts(p, s.Body.List, keyObj, appendTargets) {
			return false
		}
		return s.Else == nil || commutativeStmt(p, s.Else, keyObj, appendTargets)
	case *ast.BlockStmt:
		return commutativeStmts(p, s.List, keyObj, appendTargets)
	case *ast.RangeStmt:
		// A nested map-range is checked on its own by the main walk; for
		// the outer loop's purposes it commutes iff its body does.
		return commutativeStmts(p, s.Body.List, keyObj, appendTargets)
	case *ast.ForStmt:
		return commutativeStmts(p, s.Body.List, keyObj, appendTargets)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.DeclStmt:
		// A fresh per-iteration declaration has no cross-iteration effect.
		return true
	default:
		return false
	}
}

// commutativeAssign decides whether one assignment statement inside a
// map-range body is order-independent. It records append targets
// (candidates for the collect-then-sort pattern) as a side effect.
func commutativeAssign(p *Pass, s *ast.AssignStmt, keyObj types.Object, appendTargets map[types.Object]bool) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		// v = append(v, ...) collects for a later sort.
		if obj := identObj(p, lhs); obj != nil {
			if call, ok := rhs.(*ast.CallExpr); ok && builtinName(p.Pkg, call.Fun) == "append" && len(call.Args) > 0 {
				if identObj(p, call.Args[0]) == obj {
					appendTargets[obj] = true
					return true
				}
			}
		}
		// A short declaration of a fresh per-iteration variable has no
		// cross-iteration effect; a plain assignment to an outer variable
		// does (last writer wins) and stays flagged.
		if s.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok && p.Pkg.Info.Defs[id] != nil {
				return true
			}
		}
		// m2[k] = v with k the loop key: distinct keys commute.
		return isKeyedIndex(p, lhs, keyObj)
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if isKeyedIndex(p, lhs, keyObj) {
			return true
		}
		return isIntegerExpr(p, lhs)
	default:
		return false
	}
}

// sortedAfter reports whether obj is passed to a sort.* or slices.* call
// positioned after pos inside body.
func sortedAfter(p *Pass, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := p.Pkg.Info.Uses[pkgID].(*types.PkgName); !ok ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if identObj(p, arg) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isKeyedDelete matches delete(m2, k) with k the loop key.
func isKeyedDelete(p *Pass, e ast.Expr, keyObj types.Object) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || keyObj == nil || builtinName(p.Pkg, call.Fun) != "delete" || len(call.Args) != 2 {
		return false
	}
	return identObj(p, call.Args[1]) == keyObj
}

// isKeyedIndex matches m2[k] where k is the loop key and m2 is a map.
func isKeyedIndex(p *Pass, e ast.Expr, keyObj types.Object) bool {
	idx, ok := e.(*ast.IndexExpr)
	if !ok || keyObj == nil {
		return false
	}
	if identObj(p, idx.Index) != keyObj {
		return false
	}
	t := p.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

func isIntegerExpr(p *Pass, e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// identObj resolves an expression to the object of a plain identifier, or
// nil for anything more complex.
func identObj(p *Pass, e ast.Expr) types.Object {
	if e == nil {
		return nil
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}
