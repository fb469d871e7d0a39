package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestEffectsEngine checks the v3 summary fixpoint on the effects
// fixture: parameter write-through through mutual recursion and along
// call chains, deferred writes, and the rebind non-write.
func TestEffectsEngine(t *testing.T) {
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "effects"), "fixture/effects")
	if err != nil {
		t.Fatal(err)
	}
	idx := analysis.BuildIndex([]*analysis.Package{pkg})
	eff := idx.Effects()

	want := map[string]bool{ // key -> ParamWrites[0]
		"fixture/effects.ping":          true,
		"fixture/effects.pong":          true,
		"fixture/effects.writeThrough":  true,
		"fixture/effects.via":           true,
		"fixture/effects.pure":          false,
		"fixture/effects.deferredWrite": true,
		"fixture/effects.rebind":        false,
	}
	for key, paramWrite0 := range want {
		fe := eff.Of(key)
		if fe == nil {
			t.Fatalf("no summary for %s", key)
		}
		if len(fe.ParamWrites) == 0 {
			t.Fatalf("%s: no formal slots recorded", key)
		}
		if fe.ParamWrites[0] != paramWrite0 {
			t.Errorf("%s: ParamWrites[0] = %v, want %v", key, fe.ParamWrites[0], paramWrite0)
		}
	}
}
