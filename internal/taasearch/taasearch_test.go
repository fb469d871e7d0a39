package taasearch

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/reference"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

func testEnv(t *testing.T, depth, fanout int, per cluster.Resources) (*cluster.Cluster, *controller.Controller) {
	t.Helper()
	topo, err := topology.NewTree(depth, fanout, topology.LinkParams{
		Bandwidth: 1, SwitchCapacity: topology.InfiniteCapacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, per)
	if err != nil {
		t.Fatal(err)
	}
	return cl, controller.New(topo)
}

func uniformJob(t *testing.T, m, r int, cell float64) *workload.Job {
	t.Helper()
	j := &workload.Job{NumMaps: m, NumReduces: r, InputGB: float64(m)}
	j.Shuffle = make([][]float64, m)
	for i := range j.Shuffle {
		j.Shuffle[i] = make([]float64, r)
		for k := range j.Shuffle[i] {
			j.Shuffle[i][k] = cell
		}
	}
	j.MapComputeSec = make([]float64, m)
	j.ReduceComputeSec = make([]float64, r)
	return j
}

func runCost(t *testing.T, s scheduler.Scheduler, m, r int, fanout int, seed int64) float64 {
	t.Helper()
	cl, ctl := testEnv(t, 2, fanout, cluster.Resources{CPU: 2, Memory: 8192})
	req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{uniformJob(t, m, r, 2)},
		cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(req); err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	for _, task := range req.Tasks {
		if !cl.Container(task.Container).Placed() {
			t.Fatalf("container %d unplaced", task.Container)
		}
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	cost, err := ctl.TotalCost(req.Flows, req.Locator())
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

func TestAnnealerMatchesBruteForceOnTinyInstance(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		opt := runCost(t, reference.BruteForce{}, 2, 1, 2, seed)
		ann := runCost(t, &Annealer{Iterations: 5000}, 2, 1, 2, seed)
		if ann > opt+1e-9 {
			t.Errorf("seed %d: annealer %v > optimal %v", seed, ann, opt)
		}
		if ann < opt-1e-9 {
			t.Errorf("seed %d: annealer %v beat the oracle %v (accounting bug)", seed, ann, opt)
		}
	}
}

func TestAnnealerBeatsCapacityOnMediumInstance(t *testing.T) {
	var ann, capc float64
	for seed := int64(0); seed < 3; seed++ {
		ann += runCost(t, &Annealer{Iterations: 15000}, 8, 4, 4, seed)
		capc += runCost(t, scheduler.Capacity{}, 8, 4, 4, seed)
	}
	if ann >= capc {
		t.Errorf("annealer aggregate %v >= capacity %v", ann, capc)
	}
	t.Logf("aggregate: anneal=%.1f capacity=%.1f", ann, capc)
}

func TestHitWithinFactorOfAnnealer(t *testing.T) {
	// The headline quality question: how much does stable matching leave on
	// the table versus a long annealing run?
	var hit, ann float64
	for seed := int64(0); seed < 4; seed++ {
		hit += runCost(t, &core.HitScheduler{}, 6, 3, 4, seed)
		ann += runCost(t, &Annealer{Iterations: 30000}, 6, 3, 4, seed)
	}
	t.Logf("aggregate: hit=%.1f anneal=%.1f (gap %.1f%%)", hit, ann, (hit-ann)/ann*100)
	if hit > ann*1.6 {
		t.Errorf("hit %v more than 60%% above annealer %v", hit, ann)
	}
}

func TestAnnealerRespectsFixedContainers(t *testing.T) {
	cl, ctl := testEnv(t, 2, 2, cluster.Resources{CPU: 4, Memory: 8192})
	req, jt, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{uniformJob(t, 2, 2, 1)},
		cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	srv := cl.Servers()[0]
	if err := cl.Place(jt[0].Reduces[0], srv); err != nil {
		t.Fatal(err)
	}
	req.Fixed[jt[0].Reduces[0]] = true
	if err := (&Annealer{Iterations: 2000}).Schedule(req); err != nil {
		t.Fatal(err)
	}
	if got := cl.Container(jt[0].Reduces[0]).Server(); got != srv {
		t.Errorf("fixed container moved to %d", got)
	}
}

func TestAnnealerDeterministicPerSeed(t *testing.T) {
	a := runCost(t, &Annealer{Iterations: 3000}, 4, 2, 2, 9)
	b := runCost(t, &Annealer{Iterations: 3000}, 4, 2, 2, 9)
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

func TestAnnealerDefaults(t *testing.T) {
	a := &Annealer{}
	if a.Name() != "anneal" {
		t.Errorf("Name = %q", a.Name())
	}
	if a.iterations() != 20000 || a.startTemp() != 10 || a.cooling() != 0.9995 {
		t.Error("defaults wrong")
	}
	b := &Annealer{Iterations: 5, StartTemp: 1, Cooling: 0.5}
	if b.iterations() != 5 || b.startTemp() != 1 || b.cooling() != 0.5 {
		t.Error("overrides ignored")
	}
	if (&Annealer{Cooling: 2}).cooling() != 0.9995 {
		t.Error("cooling >= 1 not clamped")
	}
}
