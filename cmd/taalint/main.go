// Command taalint runs the repository's determinism and oracle-usage
// checks (internal/analysis) over every non-test package in the module and
// exits non-zero when any unsuppressed finding remains.
//
// Usage:
//
//	taalint [-checks maporder,epochbump,...] [-suppressed] [-prune]
//	        [-format text|json] [-lockgraph file]
//	        [-cpuprofile file] [-list] [dir]
//
// With no directory argument the module containing the current working
// directory is scanned. -prune additionally fails on stale //taalint:
// suppressions that no longer cover any finding. -format=json emits one
// machine-readable document (findings with file/line/check/message/
// suppressed records, stale suppressions, plus the check phase's
// wall-clock) for the CI audit artifact. -lockgraph writes the static
// lock-acquisition graph the lockorder check verifies as Graphviz DOT —
// the proven lock order, shipped as a CI artifact beside the findings.
// Checks run one after another in suite order; output is position-sorted
// and deterministic. -cpuprofile writes a pprof CPU
// profile of the scan for lint perf work. `make lint` is the canonical
// invocation; the selfscan test in internal/analysis keeps the gate even
// when make isn't run.
//
// Exit codes: 0 clean, 1 findings (or stale suppressions under -prune),
// 2 usage or load error (including a nonexistent directory argument).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted so tests can drive it: args
// are the command-line arguments (without the program name) and the
// returned int is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("taalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	showSuppressed := fs.Bool("suppressed", false, "also print suppressed findings (marked, never fatal)")
	prune := fs.Bool("prune", false, "fail on stale //taalint: suppressions that cover no finding")
	list := fs.Bool("list", false, "list available checks and exit")
	format := fs.String("format", "text", "output format: text or json")
	lockgraph := fs.String("lockgraph", "", "write the static lock-acquisition graph (Graphviz DOT) to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the scan to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		return fatal(stderr, fmt.Errorf("unknown format %q (want text or json)", *format))
	}

	if *list {
		for _, c := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name(), c.Doc())
		}
		return 0
	}

	checks, err := analysis.ByName(*checksFlag)
	if err != nil {
		return fatal(stderr, err)
	}

	start := "."
	if fs.NArg() > 0 {
		start = fs.Arg(0)
		// An explicit argument must name an existing directory. Without
		// this check ModuleRoot would walk UP from the nonexistent path,
		// find some enclosing module, scan it successfully and exit 0 —
		// turning a typo'd package pattern into a false green in CI.
		st, err := os.Stat(start)
		if err != nil {
			return fatal(stderr, fmt.Errorf("no such directory: %s", start))
		}
		if !st.IsDir() {
			return fatal(stderr, fmt.Errorf("not a directory: %s", start))
		}
	}
	root, _, err := analysis.ModuleRoot(start)
	if err != nil {
		return fatal(stderr, err)
	}
	// The source importer resolves module imports relative to the process
	// working directory; anchor it at the module root so taalint works
	// when invoked from anywhere.
	if err := os.Chdir(root); err != nil {
		return fatal(stderr, err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(stderr, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		return fatal(stderr, err)
	}

	if *lockgraph != "" {
		f, err := os.Create(*lockgraph)
		if err != nil {
			return fatal(stderr, err)
		}
		if err := analysis.BuildLockGraph(pkgs).WriteDOT(f); err != nil {
			f.Close()
			return fatal(stderr, err)
		}
		if err := f.Close(); err != nil {
			return fatal(stderr, err)
		}
	}

	scanStart := time.Now()
	findings := analysis.Run(pkgs, checks)
	scanDur := time.Since(scanStart)
	var stale []analysis.Suppression
	if *prune {
		stale = analysis.StaleSuppressions(pkgs, findings, checks)
	}

	// Module-root-relative file names in both formats.
	for i := range findings {
		if r, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil {
			findings[i].Pos.Filename = r
		}
	}
	for i := range stale {
		if r, err := filepath.Rel(root, stale[i].Pos.Filename); err == nil {
			stale[i].Pos.Filename = r
		}
	}

	bad := 0
	for _, f := range findings {
		if !f.Suppressed {
			bad++
		}
	}

	if *format == "json" {
		if err := writeJSON(stdout, findings, stale, scanDur); err != nil {
			return fatal(stderr, err)
		}
	} else {
		for _, f := range findings {
			if f.Suppressed {
				if *showSuppressed {
					fmt.Fprintf(stdout, "%s (suppressed)\n", f)
				}
				continue
			}
			fmt.Fprintln(stdout, f)
		}
		for _, s := range stale {
			fmt.Fprintf(stdout, "%s (stale suppression: remove it)\n", s)
		}
	}

	if bad > 0 || len(stale) > 0 {
		fmt.Fprintf(stderr, "taalint: %d finding(s), %d stale suppression(s) in %d package(s)\n", bad, len(stale), len(pkgs))
		return 1
	}
	return 0
}

func fatal(w io.Writer, err error) int {
	fmt.Fprintln(w, "taalint:", err)
	return 2
}

// jsonFinding is one finding record of the -format=json document.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonStale is one stale-suppression record.
type jsonStale struct {
	File   string   `json:"file"`
	Line   int      `json:"line"`
	Checks []string `json:"checks"`
	Reason string   `json:"reason"`
}

// jsonReport is the full -format=json document. Findings always include
// suppressed records (flagged) so the audit artifact is self-contained.
// DurationMS records the check-execution wall clock.
type jsonReport struct {
	Findings          []jsonFinding `json:"findings"`
	StaleSuppressions []jsonStale   `json:"stale_suppressions"`
	DurationMS        int64         `json:"duration_ms"`
}

// writeJSON renders findings and stale suppressions as one indented JSON
// document. Slices are always non-nil so a clean run emits [] not null.
func writeJSON(w io.Writer, findings []analysis.Finding, stale []analysis.Suppression, dur time.Duration) error {
	rep := jsonReport{
		Findings:          []jsonFinding{},
		StaleSuppressions: []jsonStale{},
		DurationMS:        dur.Milliseconds(),
	}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, jsonFinding{
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Col:        f.Pos.Column,
			Check:      f.Check,
			Message:    f.Msg,
			Suppressed: f.Suppressed,
		})
	}
	for _, s := range stale {
		rep.StaleSuppressions = append(rep.StaleSuppressions, jsonStale{
			File:   s.Pos.Filename,
			Line:   s.Pos.Line,
			Checks: s.Checks,
			Reason: s.Reason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
