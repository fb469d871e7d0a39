package analysis

import (
	"go/ast"
	"go/types"
)

// RNGSource forbids the package-level convenience functions of math/rand
// (and math/rand/v2) everywhere outside tests: rand.Intn, rand.Float64,
// rand.Shuffle, rand.Perm, rand.Seed and friends all draw from the
// process-global source, whose stream is shared across every caller in
// the binary — one extra draw anywhere perturbs every downstream decision,
// and rand.Seed has been a no-op-with-warning since Go 1.20. Every
// randomized component in this repository takes an injected seeded
// *rand.Rand (see scheduler.Request.Rand, faults.GenerateTimeline,
// workload generators); constructing one via rand.New(rand.NewSource(seed))
// is the allowed path.
type RNGSource struct{}

// rngAllowed are the constructor functions that build an isolated,
// seedable generator rather than touching the global stream.
var rngAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// Name implements Check.
func (RNGSource) Name() string { return "rngsource" }

// Doc implements Check.
func (RNGSource) Doc() string {
	return "global math/rand functions are forbidden; inject a seeded *rand.Rand"
}

// Run implements Check.
func (RNGSource) Run(p *Pass) {
	for id, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // methods on *rand.Rand are exactly what we want
		}
		if rngAllowed[fn.Name()] {
			continue
		}
		p.reportIdent(id, "global %s.%s draws from the process-wide source; inject a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
			pkgBaseName(path), fn.Name())
	}
}

func pkgBaseName(path string) string {
	if path == "math/rand/v2" {
		return "rand/v2"
	}
	return "rand"
}

// reportIdent reports at an identifier's position. Uses iteration order is
// nondeterministic, but Run sorts all findings by position afterwards, so
// output order is stable.
func (p *Pass) reportIdent(id *ast.Ident, format string, args ...any) {
	p.Reportf(id.Pos(), format, args...)
}
