package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

func paperTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTree(2, 4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func genJobs(t *testing.T, n int, seed int64) []*workload.Job {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.MinInputGB = 2
	cfg.MaxInputGB = 6
	cfg.MaxMaps = 8
	g, err := workload.NewGenerator(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g.Workload(n)
}

func runSim(t *testing.T, topo *topology.Topology, s scheduler.Scheduler, jobs []*workload.Job, seed int64) *Result {
	t.Helper()
	eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, s, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("%s run: %v", s.Name(), err)
	}
	return res
}

func TestNewErrors(t *testing.T) {
	topo := paperTopo(t)
	if _, err := New(nil, cluster.Resources{CPU: 1}, scheduler.Capacity{}, Options{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(topo, cluster.Resources{CPU: 1}, nil, Options{}); err == nil {
		t.Error("nil scheduler accepted")
	}
}

func TestRunEmptyWorkload(t *testing.T) {
	topo := paperTopo(t)
	res := runSim(t, topo, scheduler.Capacity{}, nil, 1)
	if res.JCT.N() != 0 || res.NumFlows != 0 {
		t.Errorf("empty workload produced data: %+v", res)
	}
}

func TestRunRejectsInvalidJob(t *testing.T) {
	topo := paperTopo(t)
	eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, scheduler.Capacity{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run([]*workload.Job{{NumMaps: 0, NumReduces: 1}}); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestRunSingleJobAllSchedulers(t *testing.T) {
	jobs := genJobs(t, 1, 42)
	for _, s := range []scheduler.Scheduler{scheduler.Capacity{}, scheduler.PNA{}, scheduler.Random{}, &core.HitScheduler{}} {
		t.Run(s.Name(), func(t *testing.T) {
			topo := paperTopo(t)
			res := runSim(t, topo, s, jobs, 7)
			if res.Scheduler != s.Name() {
				t.Errorf("scheduler name = %q", res.Scheduler)
			}
			if res.JCT.N() != 1 {
				t.Fatalf("JCT samples = %d, want 1", res.JCT.N())
			}
			if res.JCT.Mean() <= 0 {
				t.Errorf("JCT = %v, want > 0", res.JCT.Mean())
			}
			if res.MapTime.N() != jobs[0].NumMaps {
				t.Errorf("map samples = %d, want %d", res.MapTime.N(), jobs[0].NumMaps)
			}
			if res.ReduceTime.N() != jobs[0].NumReduces {
				t.Errorf("reduce samples = %d, want %d", res.ReduceTime.N(), jobs[0].NumReduces)
			}
			if len(res.Jobs) != 1 {
				t.Fatalf("jobs = %d", len(res.Jobs))
			}
			js := res.Jobs[0]
			if js.Completion != res.JCT.Max() {
				t.Errorf("completion %v != JCT %v", js.Completion, res.JCT.Max())
			}
			// JCT must cover the map phase plus compute.
			if js.Completion < res.MapTime.Max() {
				t.Errorf("JCT %v < max map time %v", js.Completion, res.MapTime.Max())
			}
		})
	}
}

func TestHitBeatsCapacityOnShuffleHeavyWorkload(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.MinInputGB = 4
	cfg.MaxInputGB = 8
	cfg.MaxMaps = 8
	var hitCost, capCost, hitJCT, capJCT float64
	for seed := int64(0); seed < 5; seed++ {
		g, err := workload.NewGenerator(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*workload.Job
		for i := 0; i < 3; i++ {
			j, err := g.SampleClass(workload.ShuffleHeavy)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		hit := runSim(t, paperTopo(t), &core.HitScheduler{}, jobs, seed)
		capc := runSim(t, paperTopo(t), scheduler.Capacity{}, jobs, seed)
		hitCost += hit.TotalTrafficCost
		capCost += capc.TotalTrafficCost
		hitJCT += hit.JCT.Mean()
		capJCT += capc.JCT.Mean()
	}
	if hitCost >= capCost {
		t.Errorf("hit traffic cost %v >= capacity %v", hitCost, capCost)
	}
	if hitJCT >= capJCT {
		t.Errorf("hit mean JCT %v >= capacity %v", hitJCT, capJCT)
	}
	t.Logf("aggregate: hit cost=%.1f jct=%.1f | capacity cost=%.1f jct=%.1f",
		hitCost, hitJCT, capCost, capJCT)
}

func TestMultiWaveScheduling(t *testing.T) {
	// 2-server cluster with 2 CPU each = 4 slots; a job with 1 reduce and 6
	// maps needs multiple waves.
	topo, err := topology.NewTree(1, 2, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	job := &workload.Job{ID: 0, NumMaps: 6, NumReduces: 1, InputGB: 6}
	job.Shuffle = make([][]float64, 6)
	for m := range job.Shuffle {
		job.Shuffle[m] = []float64{1}
	}
	job.MapComputeSec = []float64{1, 1, 1, 1, 1, 1}
	job.ReduceComputeSec = []float64{1}

	eng, err := New(topo, cluster.Resources{CPU: 2, Memory: 8192}, &core.HitScheduler{}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*workload.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].MapWaves < 2 {
		t.Errorf("map waves = %d, want >= 2 (6 maps, ~3 slots)", res.Jobs[0].MapWaves)
	}
	if res.MapTime.N() != 6 {
		t.Errorf("map samples = %d, want 6", res.MapTime.N())
	}
	// All 6 flows accounted for.
	if res.NumFlows != 6 {
		t.Errorf("flows = %d, want 6", res.NumFlows)
	}
	// The JCT must cover at least two sequential map waves (2 time units).
	if res.JCT.Max() < 2 {
		t.Errorf("JCT %v too small for multi-wave job", res.JCT.Max())
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	jobs := genJobs(t, 3, 11)
	a := runSim(t, paperTopo(t), &core.HitScheduler{}, jobs, 5)
	jobs2 := genJobs(t, 3, 11)
	b := runSim(t, paperTopo(t), &core.HitScheduler{}, jobs2, 5)
	if math.Abs(a.TotalTrafficCost-b.TotalTrafficCost) > 1e-9 {
		t.Errorf("cost diverged: %v vs %v", a.TotalTrafficCost, b.TotalTrafficCost)
	}
	if math.Abs(a.JCT.Mean()-b.JCT.Mean()) > 1e-9 {
		t.Errorf("JCT diverged: %v vs %v", a.JCT.Mean(), b.JCT.Mean())
	}
}

func TestResultMetricsConsistency(t *testing.T) {
	jobs := genJobs(t, 4, 21)
	res := runSim(t, paperTopo(t), scheduler.PNA{}, jobs, 9)
	var cost, delay, bytes float64
	for _, js := range res.Jobs {
		cost += js.TrafficCost
		delay += js.DelayCost
		bytes += js.ShuffleBytes
	}
	if math.Abs(cost-res.TotalTrafficCost) > 1e-6 {
		t.Errorf("job cost sum %v != total %v", cost, res.TotalTrafficCost)
	}
	if math.Abs(delay-res.TotalDelayCost) > 1e-6 {
		t.Errorf("job delay sum %v != total %v", delay, res.TotalDelayCost)
	}
	if res.AvgRouteHops <= 0 || res.AvgShuffleDelayT <= 0 {
		t.Errorf("route averages not positive: hops=%v delay=%v", res.AvgRouteHops, res.AvgShuffleDelayT)
	}
	if res.ShuffleMakespan <= 0 || res.ShuffleThroughput <= 0 {
		t.Errorf("shuffle makespan/throughput not positive: %v/%v", res.ShuffleMakespan, res.ShuffleThroughput)
	}
	// Throughput = bytes / makespan.
	if math.Abs(res.ShuffleThroughput-bytes/res.ShuffleMakespan) > 1e-6 {
		t.Errorf("throughput inconsistent")
	}
}

func TestEngineAccessors(t *testing.T) {
	topo := paperTopo(t)
	eng, err := New(topo, cluster.Resources{CPU: 2, Memory: 2048}, scheduler.Capacity{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Cluster() == nil || eng.Controller() == nil {
		t.Error("nil accessors")
	}
	if eng.Cluster().Topology() != topo {
		t.Error("topology mismatch")
	}
}

func TestRunWithArrivalsShiftsTimelines(t *testing.T) {
	jobs := genJobs(t, 3, 17)
	topo := paperTopo(t)
	eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, scheduler.Capacity{}, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []float64{0, 50, 100}
	res, err := eng.RunWithArrivals(jobs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	for i, js := range res.Jobs {
		if js.Arrival != arrivals[i] {
			t.Errorf("job %d arrival = %v, want %v", i, js.Arrival, arrivals[i])
		}
		if js.Completion <= 0 {
			t.Errorf("job %d completion = %v", i, js.Completion)
		}
	}
	// Identical workload at t=0: completions should not be smaller with
	// staggering (less contention can only help or tie; mainly we check the
	// offsets did not corrupt durations by an order of magnitude).
	res0, err := eng.RunWithArrivals(genJobs(t, 3, 17), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT.Mean() > res0.JCT.Mean()*3 {
		t.Errorf("arrival-shifted JCT %v wildly above batch %v", res.JCT.Mean(), res0.JCT.Mean())
	}
}

func TestRunWithArrivalsErrors(t *testing.T) {
	topo := paperTopo(t)
	eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, scheduler.Capacity{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := genJobs(t, 2, 1)
	if _, err := eng.RunWithArrivals(jobs, []float64{0}); err == nil {
		t.Error("short arrivals accepted")
	}
	for _, a := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := eng.RunWithArrivals(jobs, []float64{0, a}); err == nil || !strings.Contains(err.Error(), "arrival 1") {
			t.Errorf("arrival %v: err = %v, want one naming arrival 1", a, err)
		}
	}
}

func TestRunWithPoissonArrivals(t *testing.T) {
	jobs := genJobs(t, 4, 23)
	arrivals, err := workload.PoissonArrivals(len(jobs), 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := paperTopo(t)
	eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, &core.HitScheduler{}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunWithArrivals(jobs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT.N() != 4 {
		t.Fatalf("JCT samples = %d", res.JCT.N())
	}
	// Shuffle makespan extends past the last arrival when jobs do real work.
	if res.ShuffleMakespan <= arrivals[len(arrivals)-1] {
		t.Logf("note: shuffle finished before last arrival (light jobs): %v <= %v",
			res.ShuffleMakespan, arrivals[len(arrivals)-1])
	}
}

func TestRenderGantt(t *testing.T) {
	jobs := genJobs(t, 3, 41)
	res := runSim(t, paperTopo(t), scheduler.Capacity{}, jobs, 2)
	out := RenderGantt(res, 40)
	if !strings.Contains(out, "legend") {
		t.Errorf("missing legend:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+2 { // header + 3 jobs + legend
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	for _, l := range lines[1 : len(lines)-1] {
		if !strings.Contains(l, "|") {
			t.Errorf("job row missing bar: %q", l)
		}
	}
	// Degenerate inputs.
	if got := RenderGantt(nil, 40); !strings.Contains(got, "no jobs") {
		t.Errorf("nil result: %q", got)
	}
	if got := RenderGantt(&Result{}, 40); !strings.Contains(got, "no jobs") {
		t.Errorf("empty result: %q", got)
	}
	// Tiny width clamps.
	if got := RenderGantt(res, 1); !strings.Contains(got, "20 cells") {
		t.Errorf("width not clamped:\n%s", got)
	}
}

// TestStragglersAndSpeculation drives faults.TaskModel, the engine's one
// straggler model: straggling maps run StragglerFactor times longer, and
// with SpeculationThreshold 1 a backup caps a straggler at two nominal
// durations.
func TestStragglersAndSpeculation(t *testing.T) {
	runWith := func(tasks faults.TaskModel) float64 {
		topo := paperTopo(t)
		eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, scheduler.Capacity{}, Options{Seed: 4, Faults: &faults.Plan{Tasks: tasks}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(genJobs(t, 3, 55))
		if err != nil {
			t.Fatal(err)
		}
		return res.MapTime.Mean()
	}
	base := runWith(faults.TaskModel{})
	straggled := runWith(faults.TaskModel{StragglerProb: 0.3, StragglerFactor: 4, Seed: 4})
	speculated := runWith(faults.TaskModel{StragglerProb: 0.3, StragglerFactor: 4, Speculation: true, SpeculationThreshold: 1, Seed: 4})
	if straggled <= base {
		t.Errorf("stragglers did not raise map times: %v <= %v", straggled, base)
	}
	if speculated >= straggled {
		t.Errorf("speculation did not help: %v >= %v", speculated, straggled)
	}
	if speculated < base {
		t.Errorf("speculation beat the straggler-free run: %v < %v", speculated, base)
	}
	t.Logf("mean map time: base=%.2f stragglers=%.2f speculation=%.2f", base, straggled, speculated)
}
