// Command hitsim runs one MapReduce-cluster simulation scenario and prints
// the per-job and aggregate metrics.
//
// Usage:
//
//	hitsim [-scheduler hit|capacity|pna|cam|anneal|random]
//	       [-topology tree|fattree|bcube|vl2] [-servers N]
//	       [-jobs N] [-class heavy|medium|light|mixed]
//	       [-bandwidth F] [-seed N] [-gantt]
//	       [-trace FILE] [-trace-out FILE]
//	       [-checkpoint FILE] [-resume FILE] [-halt-after-wave N]
//
// Exit codes: 0 success (including an orderly -halt-after-wave stop),
// 1 run failure, 2 configuration error, 3 checkpoint/restore mismatch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/taasearch"
	"repro/internal/topology"
	"repro/internal/workload"
)

// config is one scenario's full parameterization (the flag set, testable
// without a process boundary).
type config struct {
	schedName  string
	topoName   string
	servers    int
	nJobs      int
	class      string
	bandwidth  float64
	seed       int64
	gantt      bool
	tracePath  string
	traceOut   string
	checkpoint string
	resume     string
	haltAfter  int
}

// usageError marks a configuration mistake (unknown scheduler, class,
// flag combination) as opposed to a run failure; main maps it to exit 2.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.schedName, "scheduler", "hit", "scheduler: hit, capacity, pna, cam, anneal, random")
	flag.StringVar(&cfg.topoName, "topology", "tree", "architecture: tree, fattree, bcube, vl2")
	flag.IntVar(&cfg.servers, "servers", 64, "minimum server count")
	flag.IntVar(&cfg.nJobs, "jobs", 6, "number of jobs")
	flag.StringVar(&cfg.class, "class", "mixed", "job class: heavy, medium, light, mixed")
	flag.Float64Var(&cfg.bandwidth, "bandwidth", 1.0, "link bandwidth (GB per time unit)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed")
	flag.BoolVar(&cfg.gantt, "gantt", false, "print an ASCII job timeline")
	flag.StringVar(&cfg.tracePath, "trace", "", "replay a workload trace file (overrides -jobs/-class)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "save the generated workload as a trace file")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "write a resumable checkpoint to FILE at every wave boundary")
	flag.StringVar(&cfg.resume, "resume", "", "resume the run from a checkpoint FILE")
	flag.IntVar(&cfg.haltAfter, "halt-after-wave", 0, "stop after N map waves (with the boundary checkpoint written)")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		if errors.Is(err, sim.ErrHalted) {
			fmt.Fprintf(os.Stderr, "hitsim: %v\n", err)
			return // orderly stop: the checkpoint is the result
		}
		fmt.Fprintf(os.Stderr, "hitsim: %v\n", err)
		switch {
		case errors.Is(err, sim.ErrCheckpointMismatch):
			os.Exit(3)
		case errors.As(err, &usageError{}):
			os.Exit(2)
		default:
			os.Exit(1)
		}
	}
}

func run(cfg config, out io.Writer) error {
	var sched scheduler.Scheduler
	switch cfg.schedName {
	case "hit":
		sched = &core.HitScheduler{}
	case "capacity":
		sched = scheduler.Capacity{}
	case "pna":
		sched = scheduler.PNA{}
	case "random":
		sched = scheduler.Random{}
	case "cam":
		sched = scheduler.CAM{}
	case "anneal":
		sched = &taasearch.Annealer{}
	default:
		return usagef("unknown scheduler %q", cfg.schedName)
	}
	if cfg.tracePath == "" && cfg.nJobs < 1 {
		return usagef("-jobs must be at least 1 without -trace, got %d", cfg.nJobs)
	}
	if !(cfg.bandwidth > 0) || math.IsInf(cfg.bandwidth, 1) {
		return usagef("-bandwidth must be finite and positive, got %g", cfg.bandwidth)
	}
	if cfg.haltAfter < 0 {
		return usagef("-halt-after-wave must be non-negative, got %d", cfg.haltAfter)
	}
	if cfg.haltAfter > 0 && cfg.checkpoint == "" {
		return usagef("-halt-after-wave requires -checkpoint (the boundary checkpoint is the resume point)")
	}

	topo, err := topology.NewArchitecture(cfg.topoName, cfg.servers, topology.LinkParams{
		Bandwidth:      cfg.bandwidth,
		SwitchCapacity: cfg.bandwidth * 48,
	})
	if err != nil {
		return usageError{err}
	}

	var jobs []*workload.Job
	var arrivals []float64
	if cfg.tracePath != "" {
		f, err := os.Open(cfg.tracePath)
		if err != nil {
			return err
		}
		tr, err := workload.LoadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		jobs = tr.Jobs
		arrivals = tr.Arrivals
	} else {
		wcfg := workload.DefaultConfig()
		wcfg.MaxMaps = 16
		gen, err := workload.NewGenerator(wcfg, cfg.seed)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.nJobs; i++ {
			var j *workload.Job
			var err error
			switch cfg.class {
			case "heavy":
				j, err = gen.SampleClass(workload.ShuffleHeavy)
			case "medium":
				j, err = gen.SampleClass(workload.ShuffleMedium)
			case "light":
				j, err = gen.SampleClass(workload.ShuffleLight)
			case "mixed":
				j = gen.Sample()
			default:
				return usagef("unknown class %q", cfg.class)
			}
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
	}
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return err
		}
		tr := &workload.Trace{Name: "hitsim", Jobs: jobs, Arrivals: arrivals}
		if err := tr.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", cfg.traceOut)
	}

	opts := sim.Options{Seed: cfg.seed, HaltAfterWave: cfg.haltAfter}
	if cfg.checkpoint != "" {
		opts.CheckpointSink = checkpointSink(cfg.checkpoint)
	}
	if cfg.resume != "" {
		ck, err := loadCheckpoint(cfg.resume)
		if err != nil {
			return err
		}
		opts.Resume = ck
	}

	eng, err := sim.New(topo, cluster.Resources{CPU: 4, Memory: 8192}, sched, opts)
	if err != nil {
		return err
	}
	res, err := eng.RunWithArrivals(jobs, arrivals)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "topology=%s servers=%d switches=%d scheduler=%s jobs=%d bandwidth=%.2f seed=%d\n\n",
		topo.Name(), topo.NumServers(), topo.NumSwitches(), res.Scheduler, len(jobs), cfg.bandwidth, cfg.seed)

	tb := metrics.NewTable("Per-job results",
		"job", "benchmark", "class", "maps", "reduces", "waves", "shuffle(GB)", "cost", "JCT")
	for i, js := range res.Jobs {
		tb.AddRowf([]string{"%d", "%s", "%s", "%d", "%d", "%d", "%.1f", "%.1f", "%.1f"},
			js.JobID, js.Benchmark, js.Class.String(),
			jobs[i].NumMaps, jobs[i].NumReduces, js.MapWaves,
			js.ShuffleBytes, js.TrafficCost, js.Completion)
	}
	fmt.Fprintln(out, tb.String())

	agg := metrics.NewTable("Aggregate", "metric", "value")
	agg.AddRowf([]string{"%s", "%.2f"}, "mean JCT", res.JCT.Mean())
	agg.AddRowf([]string{"%s", "%.2f"}, "p90 JCT", res.JCT.Percentile(90))
	agg.AddRowf([]string{"%s", "%.2f"}, "mean map task time", res.MapTime.Mean())
	agg.AddRowf([]string{"%s", "%.2f"}, "mean reduce task time", res.ReduceTime.Mean())
	agg.AddRowf([]string{"%s", "%.2f"}, "total shuffle cost (rate x hops)", res.TotalTrafficCost)
	agg.AddRowf([]string{"%s", "%.2f"}, "total delay cost (GB·T)", res.TotalDelayCost)
	agg.AddRowf([]string{"%s", "%.2f"}, "avg route length (hops)", res.AvgRouteHops)
	agg.AddRowf([]string{"%s", "%.2f"}, "avg shuffle delay (T)", res.AvgShuffleDelayT)
	agg.AddRowf([]string{"%s", "%.2f"}, "avg flow transfer time", res.AvgFlowTransferTime)
	agg.AddRowf([]string{"%s", "%.2f"}, "shuffle makespan", res.ShuffleMakespan)
	agg.AddRowf([]string{"%s", "%.2f"}, "shuffle throughput (GB/t)", res.ShuffleThroughput)
	agg.AddRowf([]string{"%s", "%d"}, "network flows", res.NumFlows)
	fmt.Fprintln(out, agg.String())

	if cfg.gantt {
		fmt.Fprintln(out, sim.RenderGantt(res, 72))
	}
	return nil
}

// checkpointSink writes each wave-boundary checkpoint atomically
// (temp file + rename) so a kill mid-write never corrupts the resume
// point.
func checkpointSink(path string) func(*sim.Checkpoint) error {
	return func(ck *sim.Checkpoint) error {
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := ck.Save(f); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, path)
	}
}

func loadCheckpoint(path string) (*sim.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sim.LoadCheckpoint(f)
}
