// Command hitbench regenerates the paper's tables and figures on the
// simulated substrate and prints them as text tables.
//
// Usage:
//
//	hitbench [-exp all|table1|fig1|fig3|fig6|fig7|fig7p|fig8a|fig8b|fig9|fig10|
//	               online|baselines|quality|failure|failsweep|ablation[,...]]
//	         [-seed N] [-repeats N] [-quick] [-cdf] [-csv DIR]
//
// Exit codes: 0 on success, 1 when an experiment fails, 2 for a usage
// error (an unknown experiment name or a negative -repeats).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// experimentNames lists every -exp name besides "all", in run order.
var experimentNames = []string{
	"table1", "fig1", "fig3", "fig6", "fig7", "fig7p", "fig8a", "fig8b", "fig9", "fig10",
	"online", "baselines", "quality", "failure", "failsweep", "ablation",
}

// usageError marks a bad flag value, as opposed to a run failure; main
// maps it to exit 2.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run: all, "+strings.Join(experimentNames, ", "))
	seed := flag.Int64("seed", 1, "base random seed")
	repeats := flag.Int("repeats", 0, "seeds averaged per data point (0 = default)")
	quick := flag.Bool("quick", false, "shrink workloads and sweeps for a fast pass")
	cdf := flag.Bool("cdf", false, "also print the Figure 6(a) CDF points")
	csvDir := flag.String("csv", "", "also write each experiment's data as <dir>/<exp>.csv")
	flag.Parse()

	if err := run(os.Stdout, *exp, *seed, *repeats, *quick, *cdf, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "hitbench: %v\n", err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// result is what every experiment hands back: a text table and CSV data.
type result interface {
	Render() string
	CSV() string
}

// run executes the selected experiments, writing tables to w and, when
// csvDir is non-empty, plot-ready CSV files alongside.
func run(w io.Writer, exp string, seed int64, repeats int, quick, cdf bool, csvDir string) error {
	if repeats < 0 {
		return usageError{fmt.Errorf("-repeats must be non-negative, got %d", repeats)}
	}
	selected := strings.Split(exp, ",")
	for _, s := range selected {
		if s != "all" && !slices.Contains(experimentNames, s) {
			return usageError{fmt.Errorf("unknown experiment %q", s)}
		}
	}
	cfg := experiments.Config{Seed: seed, Repeats: repeats, Quick: quick}
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	var firstErr error
	fail := func(name string, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
	}
	emit := func(name string, r result) {
		fmt.Fprintln(w, r.Render())
		if csvDir != "" {
			path := filepath.Join(csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
				fail(name, err)
				return
			}
			fmt.Fprintf(w, "(csv written to %s)\n\n", path)
		}
	}

	if want("table1") {
		emit("table1", experiments.Table1())
	}
	if want("fig1") {
		r, err := experiments.Figure1(cfg)
		if err != nil {
			fail("fig1", err)
		} else {
			emit("fig1", r)
		}
	}
	if want("fig3") {
		r, err := experiments.Figure3()
		if err != nil {
			fail("fig3", err)
		} else {
			emit("fig3", r)
		}
	}
	if want("fig6") || want("fig7") {
		f6, err := experiments.Figure6(cfg)
		if err != nil {
			fail("fig6", err)
		} else {
			if want("fig6") {
				emit("fig6", f6)
				if cdf {
					fmt.Fprintln(w, f6.RenderCDF(20))
				}
			}
			if want("fig7") {
				emit("fig7", experiments.Fig7FromFig6(f6))
			}
		}
	}
	if want("fig7p") {
		r, err := experiments.Figure7Packet(cfg)
		if err != nil {
			fail("fig7p", err)
		} else {
			emit("fig7p", r)
		}
	}
	if want("fig8a") {
		r, err := experiments.Figure8a(cfg)
		if err != nil {
			fail("fig8a", err)
		} else {
			emit("fig8a", r)
		}
	}
	if want("fig8b") {
		r, err := experiments.Figure8b(cfg)
		if err != nil {
			fail("fig8b", err)
		} else {
			emit("fig8b", r)
		}
	}
	if want("fig9") {
		r, err := experiments.Figure9(cfg)
		if err != nil {
			fail("fig9", err)
		} else {
			emit("fig9", r)
		}
	}
	if want("fig10") {
		r, err := experiments.Figure10(cfg)
		if err != nil {
			fail("fig10", err)
		} else {
			emit("fig10", r)
		}
	}
	if want("online") {
		r, err := experiments.Online(cfg)
		if err != nil {
			fail("online", err)
		} else {
			emit("online", r)
		}
	}
	if want("baselines") {
		r, err := experiments.Baselines(cfg)
		if err != nil {
			fail("baselines", err)
		} else {
			emit("baselines", r)
		}
	}
	if want("quality") {
		r, err := experiments.QualityGap(cfg)
		if err != nil {
			fail("quality", err)
		} else {
			emit("quality", r)
		}
	}
	if want("failure") {
		r, err := experiments.FailureRecovery(cfg)
		if err != nil {
			fail("failure", err)
		} else {
			emit("failure", r)
		}
	}
	if want("failsweep") {
		r, err := experiments.FailureSweep(cfg)
		if err != nil {
			fail("failsweep", err)
		} else {
			emit("failsweep", r)
		}
	}
	if want("ablation") {
		r, err := experiments.Ablation(cfg)
		if err != nil {
			fail("ablation", err)
		} else {
			emit("ablation", r)
		}
	}
	return firstErr
}
