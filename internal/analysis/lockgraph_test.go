package analysis_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestLockGraphDOT pins the exported lock graph on the lockorder
// fixture: the cycle's three edges and the acyclic nesting are present,
// the goroutine-boundary edge is not, and the DOT rendering is
// byte-deterministic (it ships as a CI artifact, so diffs must mean
// graph changes, not map-order noise).
func TestLockGraphDOT(t *testing.T) {
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir("testdata/src/lockorder", "fixture/netstate")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	g := analysis.BuildLockGraph([]*analysis.Package{pkg})

	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()

	for _, want := range []string{
		"digraph lockorder {",
		`"netstate.Oracle.pairMu" -> "netstate.Oracle.typeMu"`,
		`"netstate.Oracle.typeMu" -> "netstate.Oracle.swMu"`,
		`"netstate.Oracle.swMu" -> "netstate.Oracle.pairMu"`,
		`"netstate.Oracle.reviveMu" -> "netstate.Oracle.pairMu"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %s:\n%s", want, dot)
		}
	}
	// SpawnStats holds reviveMu while LAUNCHING the goroutine that takes
	// typeMu — a boundary, not a nesting.
	if strings.Contains(dot, `"netstate.Oracle.reviveMu" -> "netstate.Oracle.typeMu"`) {
		t.Errorf("goroutine boundary leaked into the lock graph:\n%s", dot)
	}

	var buf2 bytes.Buffer
	if err := g.WriteDOT(&buf2); err != nil {
		t.Fatal(err)
	}
	if dot != buf2.String() {
		t.Error("WriteDOT is not deterministic across calls")
	}
}
