package sim

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// fingerprintHash folds a resultFingerprint into one FNV-1a 64 value.
func fingerprintHash(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range resultFingerprint(res) {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// faultyRun runs jobs through the fault loop on the fat-tree with a
// generated fabric timeline and a task model that fails, straggles and
// speculates.
func faultyRun(t *testing.T, s scheduler.Scheduler, cpu int, seed int64, spec faults.Spec, tasks faults.TaskModel, jobs []*workload.Job, arrivals []float64) *Result {
	t.Helper()
	topo := chaosTopo(t)
	plan := &faults.Plan{Events: faults.GenerateTimeline(rand.New(rand.NewSource(seed)), topo, spec), Tasks: tasks}
	eng, err := New(topo, cluster.Resources{CPU: cpu, Memory: 8192}, s, Options{Seed: seed, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunWithArrivals(jobs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.Events == 0 {
		t.Fatalf("fault run applied no events: %+v", res.Report)
	}
	return res
}

// TestResultBitsPinned pins the exact output bits of six fixed runs, three
// through each wave loop, as FNV-1a hashes of their fingerprints. The
// determinism tests only compare a run with itself; this one compares it
// with the recorded bits, so a refactor of either loop that moves any bit
// of JCT, task times, costs, delays, remote input or fault accounting
// fails here.
func TestResultBitsPinned(t *testing.T) {
	crashMix := faults.Spec{Horizon: 40, Rate: 20, Severity: 0.6, MTTR: 6, SwitchCrashW: 2, ServerCrashW: 2, SwitchDegradeW: 1, LinkDegradeW: 1}
	for _, tc := range []struct {
		name string
		want uint64
		run  func(t *testing.T) *Result
	}{
		{"legacy-hit", 0x6d5938769b2326c5, func(t *testing.T) *Result {
			return runSim(t, paperTopo(t), &core.HitScheduler{}, genJobs(t, 4, 101), 5)
		}},
		{"legacy-capacity-arrivals", 0x1281616ef047a1d4, func(t *testing.T) *Result {
			eng, err := New(paperTopo(t), cluster.Resources{CPU: 4, Memory: 8192}, scheduler.Capacity{}, Options{Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunWithArrivals(genJobs(t, 4, 102), []float64{0, 7.5, 15, 40})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"legacy-pna-multiwave", 0xb0a3f18462a33cea, func(t *testing.T) *Result {
			eng, err := New(paperTopo(t), cluster.Resources{CPU: 2, Memory: 8192}, scheduler.PNA{}, Options{Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(genJobs(t, 4, 107))
			if err != nil {
				t.Fatal(err)
			}
			waves := 0
			for _, js := range res.Jobs {
				waves = max(waves, js.MapWaves)
			}
			if waves < 2 {
				t.Errorf("want a job with two or more map waves, most is %d", waves)
			}
			return res
		}},
		{"fault-hit", 0x4f56b32d721214bf, func(t *testing.T) *Result {
			tasks := faults.TaskModel{FailureProb: 0.15, StragglerProb: 0.2, Speculation: true, Seed: 1}
			return faultyRun(t, &core.HitScheduler{}, 4, 1, crashMix, tasks, chaosJobs(t, 3, 104), nil)
		}},
		{"fault-capacity-arrivals", 0x3a621ec07d407dcf, func(t *testing.T) *Result {
			tasks := faults.TaskModel{FailureProb: 0.2, StragglerProb: 0.3, StragglerFactor: 4, Speculation: true, SpeculationThreshold: 1, Seed: 2}
			return faultyRun(t, scheduler.Capacity{}, 4, 2, crashMix, tasks, chaosJobs(t, 3, 105), []float64{0, 4, 11})
		}},
		{"fault-hit-retry-exhausted", 0xca6f49a8e0ae43dc, func(t *testing.T) *Result {
			tasks := faults.TaskModel{FailureProb: 0.25, RetryBudget: 2, StragglerProb: 0.2, Speculation: true, Seed: 5}
			res := faultyRun(t, &core.HitScheduler{}, 2, 5, crashMix, tasks, chaosJobs(t, 4, 106), nil)
			if len(res.Report.FailedJobs) == 0 || res.JCT.N() == 0 {
				t.Errorf("want failed and completed jobs, got failed %v and %d completions", res.Report.FailedJobs, res.JCT.N())
			}
			return res
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := fingerprintHash(tc.run(t)); got != tc.want {
				t.Errorf("fingerprint hash = %#x, want %#x", got, tc.want)
			}
		})
	}
}
