package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1AndFig3(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1,fig3", 1, 1, true, false, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "terasort") {
		t.Error("table1 missing")
	}
	if !strings.Contains(out, "112") || !strings.Contains(out, "64") {
		t.Error("fig3 missing the case-study values")
	}
}

func TestRunFig6WithCDF(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig6", 1, 1, true, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CDF of job completion times") {
		t.Error("CDF table missing")
	}
}

// TestRunUnknownExperiment checks that a bad -exp or -repeats is a usage
// error (exit 2), raised before any experiment prints.
func TestRunUnknownExperiment(t *testing.T) {
	for _, tc := range []struct {
		exp     string
		repeats int
	}{
		{"bogus", 1},
		{"table1,bogus", 1},
		{"all,fig6x", 1},
		{"", 1},
		{"table1", -2},
	} {
		var buf bytes.Buffer
		err := run(&buf, tc.exp, 1, tc.repeats, true, false, "")
		if !errors.As(err, &usageError{}) {
			t.Errorf("-exp %q -repeats %d: err = %v, want a usage error", tc.exp, tc.repeats, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-exp %q -repeats %d: printed %q before rejecting", tc.exp, tc.repeats, buf.String())
		}
	}
}

// TestRunFailureIsNotUsage checks that a failing experiment stays a run
// failure (exit 1), not a usage error.
func TestRunFailureIsNotUsage(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "table1", 1, 0, true, false, "/nonexistent-dir-xyz")
	if err == nil || errors.As(err, &usageError{}) {
		t.Errorf("err = %v, want a run failure", err)
	}
}

func TestRunEmitsCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, "table1,fig3", 1, 1, true, false, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.csv", "fig3.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", name)
		}
	}
}

func TestRunCSVBadDir(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", 1, 1, true, false, "/nonexistent-dir-xyz"); err == nil {
		t.Error("bad csv dir accepted")
	}
}
