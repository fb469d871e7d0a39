package analysis_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestParseSuppressionComment pins the marker grammar — in particular
// the malformed shapes that the old parser silently skipped.
func TestParseSuppressionComment(t *testing.T) {
	cases := []struct {
		name     string
		text     string
		ok       bool
		checks   []string
		reason   string
		problems []string
	}{
		{name: "not a marker", text: "// plain comment", ok: false},
		{name: "block comment is not a marker", text: "/* taalint:floateq hidden */", ok: false},
		{name: "wellformed", text: "//taalint:floateq compares against a golden fixture",
			ok: true, checks: []string{"floateq"}, reason: "compares against a golden fixture"},
		{name: "spaced prefix", text: "//  taalint:maporder keys sorted above",
			ok: true, checks: []string{"maporder"}, reason: "keys sorted above"},
		{name: "multi check", text: "//taalint:maporder,floateq both rules excused here",
			ok: true, checks: []string{"maporder", "floateq"}, reason: "both rules excused here"},
		{name: "all", text: "//taalint:all generated file",
			ok: true, checks: []string{"all"}, reason: "generated file"},
		{name: "tab separator", text: "//taalint:wallclock\tprofiling only",
			ok: true, checks: []string{"wallclock"}, reason: "profiling only"},
		{name: "empty check list", text: "//taalint: a reason with no checks",
			ok: true, reason: "a reason with no checks", problems: []string{"empty check list"}},
		{name: "bare marker", text: "//taalint:",
			ok: true, problems: []string{"empty check list", "missing reason"}},
		{name: "only commas", text: "//taalint:,, why",
			ok: true, reason: "why", problems: []string{"empty check list"}},
		{name: "unknown check", text: "//taalint:floateqq typo'd name",
			ok: true, checks: []string{"floateqq"}, reason: "typo'd name",
			problems: []string{`unknown check "floateqq"`}},
		{name: "missing reason", text: "//taalint:maporder",
			ok: true, checks: []string{"maporder"}, problems: []string{"missing reason"}},
		{name: "unknown and missing reason", text: "//taalint:nope",
			ok: true, checks: []string{"nope"},
			problems: []string{`unknown check "nope"`, "missing reason"}},
		{name: "valid plus unknown", text: "//taalint:floateq,nope half right",
			ok: true, checks: []string{"floateq", "nope"}, reason: "half right",
			problems: []string{`unknown check "nope"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checks, reason, problems, ok := analysis.ParseSuppressionComment(tc.text)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !reflect.DeepEqual(checks, tc.checks) {
				t.Errorf("checks = %q, want %q", checks, tc.checks)
			}
			if reason != tc.reason {
				t.Errorf("reason = %q, want %q", reason, tc.reason)
			}
			if !reflect.DeepEqual(problems, tc.problems) {
				t.Errorf("problems = %q, want %q", problems, tc.problems)
			}
		})
	}
}

// TestMalformedSuppressionsReported proves end to end that broken
// markers surface as unsuppressed findings of the pseudo-check
// "suppression" — never as silent no-ops — while the well-formed marker
// in the same file stays a working suppression.
func TestMalformedSuppressionsReported(t *testing.T) {
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir("testdata/src/suppression", "fixture/suppression")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	checks, err := analysis.ByName("floateq")
	if err != nil {
		t.Fatal(err)
	}
	findings := analysis.Run([]*analysis.Package{pkg}, checks)
	var malformed []analysis.Finding
	for _, f := range findings {
		if f.Check == "suppression" {
			if f.Suppressed {
				t.Errorf("malformed marker reported as suppressed: %s", f)
			}
			malformed = append(malformed, f)
		}
	}
	if len(malformed) != 3 {
		t.Fatalf("want 3 malformed-suppression findings (empty list, unknown check, missing reason), got %d:\n%v",
			len(malformed), malformed)
	}
	for _, want := range []string{"empty check list", `unknown check "floateqq"`, "missing reason"} {
		found := false
		for _, f := range malformed {
			if strings.Contains(f.Msg, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no malformed finding mentions %q:\n%v", want, malformed)
		}
	}
}

// FuzzSuppressionComment hammers the marker parser: it must never
// panic, must be deterministic, and must uphold the grammar invariants
// for whatever byte soup reaches it (comments are attacker-adjacent
// input in the sense that ANY contributor edit flows through here).
func FuzzSuppressionComment(f *testing.F) {
	for _, seed := range []string{
		"// plain comment",
		"//taalint:floateq compares against a golden fixture",
		"//taalint:maporder,floateq both rules excused",
		"//taalint:all generated file",
		"//taalint: reason with no checks",
		"//taalint:",
		"//taalint:floateqq typo'd check",
		"//taalint:maporder",
		"//taalint:,,, \t ",
		"/* taalint:floateq block */",
		"//\ttaalint:wallclock\ttabs everywhere",
		"//taalint:poolescape \u00e9\u00e9 non-ascii reason",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checks, reason, problems, ok := analysis.ParseSuppressionComment(text)
		if !ok {
			if checks != nil || reason != "" || problems != nil {
				t.Fatalf("non-marker returned data: checks=%q reason=%q problems=%q", checks, reason, problems)
			}
			return
		}
		for _, c := range checks {
			if c == "" || strings.TrimSpace(c) != c || strings.ContainsAny(c, " \t,") {
				t.Fatalf("unnormalized check name %q from %q", c, text)
			}
		}
		if strings.TrimSpace(reason) != reason {
			t.Fatalf("unnormalized reason %q from %q", reason, text)
		}
		if len(checks) == 0 && len(problems) == 0 {
			t.Fatalf("marker with no checks must be a problem: %q", text)
		}
		if reason == "" && len(problems) == 0 {
			t.Fatalf("marker with no reason must be a problem: %q", text)
		}
		// Deterministic: same input, same parse.
		c2, r2, p2, ok2 := analysis.ParseSuppressionComment(text)
		if ok2 != ok || r2 != reason || !reflect.DeepEqual(c2, checks) || !reflect.DeepEqual(p2, problems) {
			t.Fatalf("non-deterministic parse of %q", text)
		}
	})
}
