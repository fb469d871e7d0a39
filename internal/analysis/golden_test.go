package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenFixtures maps each check to the fixture directory exercising it
// and the synthetic import path the fixture is loaded under (so the
// per-package scoping rules — decision packages, simulated layers, the
// netstate exemption — apply exactly as they would in the real tree).
var goldenFixtures = []struct {
	check      string
	dir        string
	importPath string
}{
	{"maporder", "maporder", "fixture/scheduler"},
	{"floateq", "floateq", "fixture/floateq"},
	{"rngsource", "rngsource", "fixture/rngsource"},
	{"wallclock", "wallclock", "fixture/sim"},
	{"oraclebypass", "oraclebypass", "fixture/consumer"},
	// v2 dataflow checks. The import paths matter doubly here:
	// epochbump's blessed/monitored tables key on the package base, so
	// the fixtures masquerade as topology, scheduler and core.
	{"epochbump", "epochbump", "fixture/topology"},
	{"errcompare", "errcompare", "fixture/scheduler"},
	{"mergeorder", "mergeorder", "fixture/core"},
	// poolescape's slab-field registry keys on package-base names, so the
	// fixture masquerades as stablematch.
	{"poolescape", "poolescape", "fixture/stablematch"},
	// panicpath is purely syntactic but scoped to decision packages, so
	// the fixture masquerades as sim.
	{"panicpath", "panicpath", "fixture/sim"},
	// snapshotfreeze's source table keys on "(Oracle).Method" gated by
	// the netstate base, so the fixture masquerades as netstate.
	{"snapshotfreeze", "snapshotfreeze", "fixture/netstate"},
}

// TestGolden runs each check against its fixture package and compares the
// unsuppressed diagnostics with the committed .golden file. Every fixture
// also contains exactly one suppressed violation, proving the
// //taalint:<check> escape hatch works.
func TestGolden(t *testing.T) {
	loader := analysis.NewLoader()
	for _, tc := range goldenFixtures {
		t.Run(tc.check, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := loader.LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			checks, err := analysis.ByName(tc.check)
			if err != nil {
				t.Fatal(err)
			}
			findings := analysis.Run([]*analysis.Package{pkg}, checks)

			var live, suppressed []string
			for _, f := range findings {
				line := fmt.Sprintf("%s:%d:%d: %s: %s",
					filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
				if f.Suppressed {
					suppressed = append(suppressed, line)
				} else {
					live = append(live, line)
				}
			}
			if len(live) == 0 {
				t.Errorf("check %s produced no findings on its trigger fixture", tc.check)
			}
			if len(suppressed) != 1 {
				t.Errorf("check %s: want exactly 1 suppressed finding proving the escape hatch, got %d\n%s",
					tc.check, len(suppressed), strings.Join(suppressed, "\n"))
			}

			got := strings.Join(live, "\n") + "\n"
			goldenPath := filepath.Join(dir, tc.check+".golden")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/analysis -run TestGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
