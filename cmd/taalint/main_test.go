package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// TestListExitsZero pins the cheap happy path: -list needs no module scan.
func TestListExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("run(-list) = %d, want 0 (stderr: %s)", code, errw.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"maporder", "floateq", "rngsource", "wallclock", "oraclebypass",
		"epochbump", "errcompare", "mergeorder", "poolescape",
		"panicpath", "policyfreeze"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list names %v, want the eleven checks %v", got, want)
	}
}

// TestUnknownFormatExitsNonzero pins -format validation.
func TestUnknownFormatExitsNonzero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-format", "xml"}, &out, &errw); code != 2 {
		t.Fatalf("run(-format xml) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown format") {
		t.Errorf("stderr missing clear error, got: %s", errw.String())
	}
}

// TestWriteJSON pins the machine-readable document shape on synthetic
// findings: file/line/check/message/suppressed records plus stale
// suppressions, with empty slices (not null) on a clean run.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, nil, nil, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var clean jsonReport
	if err := json.Unmarshal(buf.Bytes(), &clean); err != nil {
		t.Fatalf("clean document does not parse: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("clean run must emit an empty findings array, got:\n%s", buf.String())
	}
	if clean.DurationMS != 1500 {
		t.Errorf("timing record mismatch: duration_ms=%d", clean.DurationMS)
	}

	buf.Reset()
	findings := []analysis.Finding{{
		Check:      "poolescape",
		Pos:        token.Position{Filename: "internal/netstate/pairroute.go", Line: 42, Column: 3},
		Msg:        "pooled dp may not be returned to its pool on every exit path",
		Suppressed: true,
	}}
	stale := []analysis.Suppression{{
		Pos:    token.Position{Filename: "internal/core/core.go", Line: 7},
		Checks: []string{"maporder"},
		Reason: "legacy",
	}}
	if err := writeJSON(&buf, findings, stale, 0); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("document does not parse: %v\n%s", err, buf.String())
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Check != "poolescape" ||
		rep.Findings[0].Line != 42 || !rep.Findings[0].Suppressed {
		t.Errorf("finding record mismatch: %+v", rep.Findings)
	}
	if len(rep.StaleSuppressions) != 1 || rep.StaleSuppressions[0].Reason != "legacy" {
		t.Errorf("stale record mismatch: %+v", rep.StaleSuppressions)
	}
}

// TestNonexistentDirExitsNonzero pins the bugfix: a nonexistent directory
// argument must be a hard error, not a silent scan of whatever enclosing
// module ModuleRoot happens to find above it.
func TestNonexistentDirExitsNonzero(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"/nonexistent/taalint/target"}, &out, &errw)
	if code != 2 {
		t.Fatalf("run(nonexistent dir) = %d, want 2 (stdout: %s)", code, out.String())
	}
	if !strings.Contains(errw.String(), "no such directory") {
		t.Errorf("stderr missing clear error, got: %s", errw.String())
	}
}

// TestFileArgExitsNonzero: a file (not a directory) argument is a usage
// error too.
func TestFileArgExitsNonzero(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"main.go"}, &out, &errw)
	if code != 2 {
		t.Fatalf("run(file arg) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "not a directory") {
		t.Errorf("stderr missing clear error, got: %s", errw.String())
	}
}

// TestUnknownCheckExitsNonzero pins -checks validation.
func TestUnknownCheckExitsNonzero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-checks", "nope"}, &out, &errw); code != 2 {
		t.Fatalf("run(-checks nope) = %d, want 2", code)
	}
}
