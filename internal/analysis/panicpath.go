package analysis

import (
	"go/ast"
)

// PanicPath forbids naked `go` statements in the decision packages. A
// worker goroutine launched bare has no recover wrapper: a panic in it
// kills the whole process instead of failing the one task that raised
// it. Every fan-out in a decision package must flow through
// internal/parallel.Map, whose safeCall wrapper converts panics to
// errors. That package is deliberately NOT a decision package,
// so its own launch sites stay legal.
//
// The check is purely syntactic — any *ast.GoStmt is a finding — because
// the contract is structural: there is no "safe" naked goroutine in a
// decision package, only one whose panic path has not been exercised yet.
type PanicPath struct{}

// Name implements Check.
func (PanicPath) Name() string { return "panicpath" }

// Doc implements Check.
func (PanicPath) Doc() string {
	return "no naked go statements in decision packages; fan out through internal/parallel"
}

// Run implements Check.
func (PanicPath) Run(p *Pass) {
	if !decisionPackages[p.Pkg.Base()] {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(),
					"naked go statement in a decision package; launch workers through internal/parallel so panics surface as errors")
			}
			return true
		})
	}
}
