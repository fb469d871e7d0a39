// Package analysis is taalint's stdlib-only static-analysis framework: a
// go/ast + go/types harness that enforces the repository's determinism,
// oracle-usage, cache-coherence and error-contract invariants across every
// scheduler layer.
//
// The paper's evaluation (Figures 6-10) is reproducible only if every
// placement and policy decision is bit-deterministic for a given seed, and
// the netstate path/cost oracle is only a win if no consumer silently
// reintroduces ad-hoc BFS or topology scans behind its back — or mutates
// cached-over state without bumping the epoch that invalidates those
// caches. Eleven checks in all. v1 shipped five per-package AST checks
// (maporder, floateq, rngsource, wallclock, oraclebypass). v2 adds a
// module-level dataflow layer — a lightweight call graph and field-access
// index (index.go) — and three checks on top of it: epochbump, errcompare
// and mergeorder. v3 adds poolescape, which keeps memory held in the
// registered scratch fields from escaping the call that fills it.
// panicpath keeps naked goroutines out of the decision packages: the one
// fan-out left is the experiment harness's internal/parallel.Map over
// cells, each of which builds its own topology, controller and oracle.
// The netstate oracle, the controller and the Hit scheduler each have one
// owner and hold no lock. policyfreeze keeps a flow.Policy immutable once
// built, since the controller, core's solve records and the topology's
// type templates share one value.
// The module checks share one dataflow substrate (flow.go): a path
// walker, an lvalue-spine helper, a taint evaluator and a call-graph
// flood.
//
// A finding on a given line is suppressed by a comment of the form
//
//	//taalint:<check> <reason>
//
// placed either at the end of the offending line or on its own line
// directly above it. Suppressions are deliberate, reviewable escape
// hatches; the reason text is free-form but expected. Suppressions that no
// longer cover any finding are themselves findings: StaleSuppressions
// (surfaced as `taalint -prune`) keeps the escape hatches from outliving
// the code they excused.
//
// The framework deliberately depends on nothing outside the standard
// library: no golang.org/x/tools, no go/analysis. Packages are parsed with
// go/parser and type-checked with go/types against the source importer, so
// `go run ./cmd/taalint` works on a bare toolchain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a check.
type Finding struct {
	Check      string         // check name, e.g. "maporder"
	Pos        token.Position // file:line:col of the offending node
	Msg        string         // human-readable diagnostic
	Suppressed bool           // true when a //taalint:<check> comment covers the line
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Package is one loaded, type-checked, non-test package.
type Package struct {
	Path  string // import path ("repro/internal/core")
	Dir   string // absolute source directory
	Fset  *token.FileSet
	Files []*ast.File // sorted by file name
	Pkg   *types.Package
	Info  *types.Info
}

// Base returns the last import-path element, the unit the per-package
// scoping rules match on ("repro/internal/core" -> "core").
func (p *Package) Base() string { return path.Base(p.Path) }

// Pass carries one (check, package) run and collects findings.
type Pass struct {
	Pkg      *Package
	check    string
	findings *[]Finding
}

// Fset returns the pass's position set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypeOf returns the type of an expression, or nil when untypeable.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Check: p.check,
		Pos:   p.Pkg.Fset.Position(pos),
		Msg:   fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module-check run over every loaded package plus
// the shared dataflow index.
type ModulePass struct {
	Pkgs     []*Package
	Index    *Index
	check    string
	findings *[]Finding
}

// Reportf records a finding at pos, resolved through pkg's file set.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*mp.findings = append(*mp.findings, Finding{
		Check: mp.check,
		Pos:   pkg.Fset.Position(pos),
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Check is one lint rule: a name, a one-line doc string, and either a
// per-package Run (PackageCheck) or a whole-module RunModule (ModuleCheck).
type Check interface {
	Name() string
	Doc() string
}

// PackageCheck inspects a single package at a time. All v1 checks are
// package checks: their rules are expressible file- or package-locally.
type PackageCheck interface {
	Check
	Run(p *Pass)
}

// ModuleCheck inspects the whole module at once through the dataflow
// index — required when the invariant spans packages (a mutator in
// topology proven to bump the epoch consumed in netstate).
type ModuleCheck interface {
	Check
	RunModule(mp *ModulePass)
}

// All returns the full check suite in stable order.
func All() []Check {
	return []Check{
		MapOrder{},
		FloatEq{},
		RNGSource{},
		WallClock{},
		OracleBypass{},
		EpochBump{},
		ErrCompare{},
		MergeOrder{},
		PoolEscape{},
		PanicPath{},
		PolicyFreeze{},
	}
}

// ByName resolves a comma-separated check list against the full suite.
func ByName(names string) ([]Check, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]Check)
	for _, c := range All() {
		byName[c.Name()] = c
	}
	var out []Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// Run applies every check to every package, resolves suppression comments
// and returns all findings sorted by position. Package checks run per
// package; module checks run once over the full set with the dataflow
// index. Suppressed findings are included with Suppressed set so callers
// can audit the escape hatches.
func Run(pkgs []*Package, checks []Check) []Finding {
	var idx *Index
	var findings []Finding
	for _, c := range checks {
		if pc, ok := c.(PackageCheck); ok {
			for _, pkg := range pkgs {
				pc.Run(&Pass{Pkg: pkg, check: c.Name(), findings: &findings})
			}
		}
		if mc, ok := c.(ModuleCheck); ok {
			if idx == nil {
				idx = BuildIndex(pkgs)
			}
			mc.RunModule(&ModulePass{Pkgs: pkgs, Index: idx, check: c.Name(), findings: &findings})
		}
	}

	sup, malformed := parseSuppressions(pkgs)
	// Malformed //taalint: markers are findings of the pseudo-check
	// "suppression", never silent no-ops: the old parser's worst failure
	// mode was a typo'd check name that suppressed nothing AND was
	// skipped by the stale audit (which gates on run check names).
	for _, m := range malformed {
		findings = append(findings, Finding{
			Check: "suppression",
			Pos:   m.Pos,
			Msg: fmt.Sprintf("malformed //taalint: comment (%s); write //taalint:<check>[,<check>] <reason>",
				strings.Join(m.Problems, "; ")),
		})
	}
	for i := range findings {
		f := &findings[i]
		if sup.covers(f.Pos.Filename, f.Pos.Line, f.Check) {
			f.Suppressed = true
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return findings
}

// Unsuppressed filters a finding list down to the ones that still gate.
func Unsuppressed(all []Finding) []Finding {
	var out []Finding
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Suppression is one parsed //taalint:<check> comment.
type Suppression struct {
	Pos    token.Position
	Checks []string // suppressed check names ("all" suppresses everything)
	Reason string   // free-form justification text after the check list
}

// String renders the suppression in file:line form.
func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: //taalint:%s %s", s.Pos.Filename, s.Pos.Line, strings.Join(s.Checks, ","), s.Reason)
}

// covers reports whether the suppression covers a finding of the given
// check at (file, line): same file, the comment's own line or the line
// directly above.
func (s Suppression) covers(file string, line int, check string) bool {
	if s.Pos.Filename != file || (line != s.Pos.Line && line != s.Pos.Line+1) {
		return false
	}
	for _, c := range s.Checks {
		if c == check || c == "all" {
			return true
		}
	}
	return false
}

// StaleSuppressions returns every suppression comment in pkgs that covers
// no finding of any RUN check — dead escape hatches that should be
// deleted. Only suppressions naming at least one run check (or "all") are
// audited, so running a check subset never misreports the others'
// suppressions as stale. findings must come from a Run over the same
// packages and checks.
func StaleSuppressions(pkgs []*Package, findings []Finding, checks []Check) []Suppression {
	ran := make(map[string]bool, len(checks))
	for _, c := range checks {
		ran[c.Name()] = true
	}
	var stale []Suppression
	sups, _ := parseSuppressions(pkgs)
	for _, s := range sups {
		relevant := false
		for _, c := range s.Checks {
			if c == "all" || ran[c] {
				relevant = true
				break
			}
		}
		if !relevant {
			continue
		}
		used := false
		for _, f := range findings {
			if s.covers(f.Pos.Filename, f.Pos.Line, f.Check) {
				used = true
				break
			}
		}
		if !used {
			stale = append(stale, s)
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return stale
}

// suppressionSet answers covers queries over every parsed suppression.
type suppressionSet []Suppression

func (set suppressionSet) covers(file string, line int, check string) bool {
	for _, s := range set {
		if s.covers(file, line, check) {
			return true
		}
	}
	return false
}

// MalformedSuppression is a //taalint: marker the parser could not
// accept: an empty check list, a name no check carries, or a missing
// reason. Run reports each as a finding of the pseudo-check
// "suppression".
type MalformedSuppression struct {
	Pos      token.Position
	Problems []string
}

// ParseSuppressionComment parses one comment's raw source text (as in
// ast.Comment.Text, the // included). ok reports whether the comment is
// a //taalint: marker at all; non-markers are not suppressions and not
// errors. For markers, checks and reason carry the parse, and problems
// lists everything malformed about it: an empty check list, a check
// name neither the suite nor "all" knows, or an empty reason (the
// justification is part of the contract — an unexplained suppression is
// unreviewable). A marker with problems suppresses nothing.
func ParseSuppressionComment(text string) (checks []string, reason string, problems []string, ok bool) {
	t := strings.TrimPrefix(text, "//")
	t = strings.TrimSpace(t)
	if !strings.HasPrefix(t, "taalint:") {
		return nil, "", nil, false
	}
	t = strings.TrimPrefix(t, "taalint:")
	// First field is the check list; the rest is the reason.
	list := t
	if i := strings.IndexAny(t, " \t"); i >= 0 {
		list, reason = t[:i], strings.TrimSpace(t[i+1:])
	}
	known := map[string]bool{"all": true, "suppression": true}
	for _, c := range All() {
		known[c.Name()] = true
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		checks = append(checks, name)
		if !known[name] {
			problems = append(problems, fmt.Sprintf("unknown check %q", name))
		}
	}
	if len(checks) == 0 {
		problems = append(problems, "empty check list")
	}
	if reason == "" {
		problems = append(problems, "missing reason")
	}
	return checks, reason, problems, true
}

// parseSuppressions scans every package's comments for //taalint:
// markers, splitting them into well-formed suppressions and malformed
// markers.
func parseSuppressions(pkgs []*Package) (suppressionSet, []MalformedSuppression) {
	var out []Suppression
	var bad []MalformedSuppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, problems, ok := ParseSuppressionComment(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if len(problems) > 0 {
						bad = append(bad, MalformedSuppression{Pos: pos, Problems: problems})
						continue
					}
					out = append(out, Suppression{Pos: pos, Checks: names, Reason: reason})
				}
			}
		}
	}
	return out, bad
}

// decisionPackages are the import-path base names whose map iteration and
// error handling must be deterministic: every package that makes or orders
// placement and policy decisions.
var decisionPackages = map[string]bool{
	"core":        true,
	"scheduler":   true,
	"controller":  true,
	"stablematch": true,
	"sim":         true,
	"yarn":        true,
	"experiments": true,
	"faults":      true,
}

// wallclockPackages are the import-path base names that must use the
// simulated clock exclusively.
var wallclockPackages = map[string]bool{
	"sim":         true,
	"scheduler":   true,
	"core":        true,
	"experiments": true,
	"faults":      true,
}
