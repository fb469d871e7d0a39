// Command hitprofile demonstrates the offline profiling phase of §6: it
// simulates a training workload, records every job's observed
// input/shuffle/remote-map volumes into a profile store, reports the learned
// per-benchmark ratios against the catalog's ground truth, and optionally
// persists the store as JSON.
//
// Usage:
//
//	hitprofile [-jobs N] [-seed N] [-o profiles.json]
//
// Exit codes: 0 success, 1 run failure, 2 usage error (-jobs below 1).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/procstat"
	"repro/internal/profile"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	nJobs := flag.Int("jobs", 40, "training jobs to simulate")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "write the profile store to this JSON file")
	flag.Parse()

	if err := run(*nJobs, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "hitprofile: %v\n", err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a bad flag value, as opposed to a run failure; main
// maps it to exit 2.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func run(nJobs int, seed int64, out string) error {
	if nJobs < 1 {
		return usageError{fmt.Errorf("-jobs must be at least 1, got %d", nJobs)}
	}
	topo, err := topology.NewPaperTree(topology.LinkParams{Bandwidth: 1, SwitchCapacity: 48})
	if err != nil {
		return err
	}
	wcfg := workload.DefaultConfig()
	wcfg.MaxMaps = 8
	gen, err := workload.NewGenerator(wcfg, seed)
	if err != nil {
		return err
	}
	jobs := gen.Workload(nJobs)

	eng, err := sim.New(topo, cluster.Resources{CPU: 4, Memory: 8192}, scheduler.Capacity{}, sim.Options{Seed: seed})
	if err != nil {
		return err
	}
	res, err := eng.Run(jobs)
	if err != nil {
		return err
	}

	store, err := profile.NewStore(0.3)
	if err != nil {
		return err
	}
	for i, js := range res.Jobs {
		if err := store.Record(profile.Record{
			Benchmark:   js.Benchmark,
			InputGB:     jobs[i].InputGB,
			ShuffleGB:   js.ShuffleBytes,
			RemoteMapGB: js.RemoteMapGB,
		}); err != nil {
			return err
		}
	}

	// Resource footprint of the run: the oracle's cache census (O(V) in
	// structural mode) and the process peak RSS, printed next to the
	// learned profiles so capacity planning sees memory with accuracy.
	ms := eng.Controller().Oracle().MemoryStats()
	fmt.Printf("oracle caches: structural=%v approx %.2f MB (dist rows %d, routes %d+%d, switch-pair slots %d)\n",
		ms.Structural, float64(ms.ApproxBytes)/1e6,
		ms.DistRows, ms.RoutesDense, ms.RoutesSharded, ms.SwitchPairEntries)
	if rss, ok := procstat.PeakRSSBytes(); ok {
		fmt.Printf("process peak RSS: %.2f MB\n", float64(rss)/1e6)
	} else {
		fmt.Println("process peak RSS: n/a on this platform")
	}
	fmt.Println()

	tb := metrics.NewTable(fmt.Sprintf("Learned shuffle profiles (%d training jobs)", nJobs),
		"benchmark", "learned shuffle/input", "catalog", "learned class", "samples")
	for _, name := range store.Benchmarks() {
		e, _ := store.Estimate(name)
		truth, err := workload.BenchmarkByName(name)
		if err != nil {
			return err
		}
		tb.AddRowf([]string{"%s", "%.3f", "%.3f", "%s", "%d"},
			name, e.ShuffleRatio, truth.ShuffleRatio, profile.Classify(e.ShuffleRatio).String(), e.Samples)
	}
	fmt.Println(tb.String())

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := saveStore(store, f); err != nil {
			return err
		}
		fmt.Printf("profile store written to %s\n", out)
	}
	return nil
}

// saveStore writes the store to w and closes it. A failed Close can lose
// the written data just as a failed write does, so its error counts too.
func saveStore(store *profile.Store, w io.WriteCloser) error {
	err := store.Save(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}
