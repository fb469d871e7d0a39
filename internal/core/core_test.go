package core

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
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

func uniformJob(t *testing.T, id, m, r int, cell float64) *workload.Job {
	t.Helper()
	j := &workload.Job{ID: id, NumMaps: m, NumReduces: r, InputGB: float64(m)}
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

func buildRequest(t *testing.T, cl *cluster.Cluster, ctl *controller.Controller, jobs []*workload.Job, seed int64) (*scheduler.Request, []scheduler.JobTasks) {
	t.Helper()
	req, jt, err := scheduler.NewJobRequest(cl, ctl, jobs, cluster.Resources{CPU: 1, Memory: 1024}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return req, jt
}

func checkScheduled(t *testing.T, req *scheduler.Request) {
	t.Helper()
	for _, task := range req.Tasks {
		if !req.Cluster.Container(task.Container).Placed() {
			t.Errorf("container %d unplaced", task.Container)
		}
	}
	topo := req.Cluster.Topology()
	for _, f := range req.Flows {
		p := req.Controller.Policy(f.ID)
		if p == nil {
			t.Errorf("flow %d has no policy", f.ID)
			continue
		}
		if err := p.Satisfied(topo); err != nil {
			t.Errorf("flow %d policy unsatisfied: %v", f.ID, err)
		}
	}
	if err := req.Cluster.Validate(); err != nil {
		t.Errorf("cluster invariants: %v", err)
	}
}

func totalCost(t *testing.T, req *scheduler.Request) float64 {
	t.Helper()
	c, err := req.Controller.TotalCost(req.Flows, req.Locator())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runScheduler executes s on a fresh environment and returns the total cost.
func runScheduler(t *testing.T, s scheduler.Scheduler, jobs func(t *testing.T) []*workload.Job, seed int64, fanout int) float64 {
	t.Helper()
	cl, ctl := testEnv(t, 2, fanout, cluster.Resources{CPU: 2, Memory: 8192})
	req, _ := buildRequest(t, cl, ctl, jobs(t), seed)
	if err := s.Schedule(req); err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	checkScheduled(t, req)
	return totalCost(t, req)
}

func TestHitSchedulesEverything(t *testing.T) {
	cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 4, Memory: 8192})
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 6, 3, 2)}, 1)
	h := &HitScheduler{}
	if h.Name() != "hit" {
		t.Errorf("Name = %q", h.Name())
	}
	if err := h.Schedule(req); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	checkScheduled(t, req)
}

func TestHitBeatsCapacityAndRandomInAggregate(t *testing.T) {
	jobs := func(t *testing.T) []*workload.Job {
		return []*workload.Job{uniformJob(t, 0, 6, 4, 3), uniformJob(t, 1, 4, 2, 1)}
	}
	var hit, capc, rnd float64
	for seed := int64(0); seed < 8; seed++ {
		hit += runScheduler(t, &HitScheduler{}, jobs, seed, 4)
		capc += runScheduler(t, scheduler.Capacity{}, jobs, seed, 4)
		rnd += runScheduler(t, scheduler.Random{}, jobs, seed, 4)
	}
	if hit >= capc {
		t.Errorf("hit aggregate cost %v >= capacity %v", hit, capc)
	}
	if hit >= rnd {
		t.Errorf("hit aggregate cost %v >= random %v", hit, rnd)
	}
	t.Logf("aggregate cost: hit=%.1f capacity=%.1f random=%.1f", hit, capc, rnd)
}

func TestHitNearBruteForceOnTinyInstance(t *testing.T) {
	jobs := func(t *testing.T) []*workload.Job {
		return []*workload.Job{uniformJob(t, 0, 2, 1, 5)}
	}
	var hit, opt float64
	for seed := int64(0); seed < 6; seed++ {
		hit += runScheduler(t, &HitScheduler{}, jobs, seed, 2)
		opt += runScheduler(t, reference.BruteForce{}, jobs, seed, 2)
	}
	if hit < opt-1e-9 {
		t.Errorf("hit %v beat the exhaustive optimum %v: cost accounting broken", hit, opt)
	}
	if hit > opt*2+1e-9 {
		t.Errorf("hit aggregate %v more than 2x optimal %v", hit, opt)
	}
	t.Logf("tiny instance aggregate: hit=%.1f optimal=%.1f", hit, opt)
}

func TestHitDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []topology.NodeID {
		cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 2, Memory: 8192})
		req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 4, 2, 2)}, seed)
		if err := (&HitScheduler{}).Schedule(req); err != nil {
			t.Fatal(err)
		}
		var out []topology.NodeID
		for _, task := range req.Tasks {
			out = append(out, cl.Container(task.Container).Server())
		}
		return out
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at task %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestHitColocatesSingleFlowPair(t *testing.T) {
	// One map and one reduce with a huge flow and roomy servers: the optimal
	// assignment puts them on the same server (cost 0) or same rack; Hit
	// must find cost substantially below the cross-rack worst case.
	cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 4, Memory: 8192})
	req, jt := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 1, 1, 10)}, 3)
	if err := (&HitScheduler{}).Schedule(req); err != nil {
		t.Fatal(err)
	}
	checkScheduled(t, req)
	ms := cl.Container(jt[0].Maps[0]).Server()
	rs := cl.Container(jt[0].Reduces[0]).Server()
	if ms != rs {
		t.Errorf("map on %d, reduce on %d; want co-located (cost 0 feasible)", ms, rs)
	}
	if got := totalCost(t, req); got != 0 {
		t.Errorf("cost = %v, want 0 for co-located pair", got)
	}
}

func TestHitSubsequentWaveFixedReducesStay(t *testing.T) {
	cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 4, Memory: 16384})
	req, jt := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 4, 2, 3)}, 2)
	// Pin reduces on known servers (simulating the completed reduce wave).
	srv := cl.Servers()
	pinned := map[cluster.ContainerID]topology.NodeID{}
	for i, c := range jt[0].Reduces {
		if err := cl.Place(c, srv[i]); err != nil {
			t.Fatal(err)
		}
		req.Fixed[c] = true
		pinned[c] = srv[i]
	}
	if err := (&HitScheduler{}).Schedule(req); err != nil {
		t.Fatal(err)
	}
	checkScheduled(t, req)
	for c, want := range pinned {
		if got := cl.Container(c).Server(); got != want {
			t.Errorf("fixed reduce %d moved to %d", c, got)
		}
	}
	// The greedy map pass should pull maps near the reduces: total cost must
	// beat a capacity run on the same pinned setup.
	hitCost := totalCost(t, req)

	cl2, ctl2 := testEnv(t, 2, 4, cluster.Resources{CPU: 4, Memory: 16384})
	req2, jt2 := buildRequest(t, cl2, ctl2, []*workload.Job{uniformJob(t, 0, 4, 2, 3)}, 2)
	for i, c := range jt2[0].Reduces {
		if err := cl2.Place(c, cl2.Servers()[i]); err != nil {
			t.Fatal(err)
		}
		req2.Fixed[c] = true
	}
	if err := (scheduler.Capacity{}).Schedule(req2); err != nil {
		t.Fatal(err)
	}
	capCost := totalCost(t, req2)
	if hitCost > capCost+1e-9 {
		t.Errorf("subsequent-wave hit cost %v > capacity %v", hitCost, capCost)
	}
	t.Logf("subsequent wave: hit=%.1f capacity=%.1f", hitCost, capCost)
}

func TestHitAblationsDoNotBeatFullHit(t *testing.T) {
	jobs := func(t *testing.T) []*workload.Job {
		return []*workload.Job{uniformJob(t, 0, 6, 4, 3)}
	}
	var full, noPolicy, noMatch float64
	for seed := int64(0); seed < 8; seed++ {
		full += runScheduler(t, &HitScheduler{}, jobs, seed, 4)
		noPolicy += runScheduler(t, &HitScheduler{DisablePolicyOpt: true}, jobs, seed, 4)
		noMatch += runScheduler(t, &HitScheduler{DisableStableMatching: true}, jobs, seed, 4)
	}
	t.Logf("aggregate cost: full=%.1f no-policy-opt=%.1f no-matching=%.1f", full, noPolicy, noMatch)
	if full > noPolicy+1e-9 {
		t.Errorf("full hit %v worse than no-policy-opt ablation %v", full, noPolicy)
	}
	// Greedy assignment can occasionally tie; full must never be worse in
	// aggregate.
	if full > noMatch+1e-9 {
		t.Errorf("full hit %v worse than no-matching ablation %v", full, noMatch)
	}
}

func TestHitRespectsSwitchCapacity(t *testing.T) {
	// Tight switch capacities force flows to spread across the fabric; every
	// installed policy must respect the limits (Install enforces, so success
	// implies feasibility).
	topo, err := topology.NewFatTree(4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 30})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(topo)
	req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{uniformJob(t, 0, 8, 4, 2)},
		cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := (&HitScheduler{}).Schedule(req); err != nil {
		t.Fatalf("Schedule under tight capacity: %v", err)
	}
	checkScheduled(t, req)
	if over := ctl.OverloadedSwitches(); len(over) != 0 {
		t.Errorf("overloaded switches after scheduling: %v", over)
	}
}

func TestHitEmptyRequest(t *testing.T) {
	cl, ctl := testEnv(t, 1, 2, cluster.Resources{CPU: 1, Memory: 1})
	req := &scheduler.Request{Cluster: cl, Controller: ctl, Rand: rand.New(rand.NewSource(1))}
	if err := (&HitScheduler{}).Schedule(req); err != nil {
		t.Fatalf("empty request: %v", err)
	}
}

func TestHitCaseStudyScenario(t *testing.T) {
	// §2.3: jobs of 34 GB (heavy) and 10 GB (light) shuffle, one map + one
	// reduce each, maps pinned to S1, two reduce slots left on S2 and S4.
	// Capacity-style placement (R1->S4, R2->S2) costs 34*3 + 10*1 = 112 GB·T;
	// the optimum (R1->S2, R2->S4) costs 34*1 + 10*3 = 64 GB·T. Hit must find it.
	topo, servers, err := topology.NewCaseStudyTree(topology.LinkParams{
		Bandwidth: 1, SwitchCapacity: topology.InfiniteCapacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(topo)
	heavy := uniformJob(t, 0, 1, 1, 34)
	light := uniformJob(t, 1, 1, 1, 10)
	req, jt, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{heavy, light},
		cluster.Resources{CPU: 1, Memory: 1024}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Pin both maps on S1 (as the case study observed), fill S1 and S3 so the
	// reduces must go to S2/S4.
	if err := cl.Place(jt[0].Maps[0], servers[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(jt[1].Maps[0], servers[0]); err != nil {
		t.Fatal(err)
	}
	req.Fixed[jt[0].Maps[0]] = true
	req.Fixed[jt[1].Maps[0]] = true
	blockA, _ := cl.NewContainer(cluster.Resources{CPU: 2, Memory: 1})
	if err := cl.Place(blockA.ID, servers[2]); err != nil { // fill S3
		t.Fatal(err)
	}
	// The case study caps each server at two tasks; S2 and S4 already run one
	// task each, leaving exactly one reduce slot apiece.
	blockB, _ := cl.NewContainer(cluster.Resources{CPU: 1, Memory: 1})
	if err := cl.Place(blockB.ID, servers[1]); err != nil {
		t.Fatal(err)
	}
	blockC, _ := cl.NewContainer(cluster.Resources{CPU: 1, Memory: 1})
	if err := cl.Place(blockC.ID, servers[3]); err != nil {
		t.Fatal(err)
	}

	if err := (&HitScheduler{}).Schedule(req); err != nil {
		t.Fatal(err)
	}
	checkScheduled(t, req)

	// Evaluate in the case study's GB·T metric.
	cm := ctl.CostModel()
	loc := req.Locator()
	var delay float64
	for _, f := range req.Flows {
		d, err := cm.FlowDelay(f, ctl.Policy(f.ID), loc)
		if err != nil {
			t.Fatal(err)
		}
		delay += d
	}
	if delay != 64 {
		t.Errorf("case-study shuffle delay = %v GB·T, want 64 (optimal)", delay)
	}
	// R1 (heavy) must sit with its map's rack: S2.
	if got := cl.Container(jt[0].Reduces[0]).Server(); got != servers[1] {
		t.Errorf("heavy reduce on %v, want S2 (%v)", got, servers[1])
	}
	if got := cl.Container(jt[1].Reduces[0]).Server(); got != servers[3] {
		t.Errorf("light reduce on %v, want S4 (%v)", got, servers[3])
	}
}

func TestHitRejectsInvalidRequest(t *testing.T) {
	if err := (&HitScheduler{}).Schedule(&scheduler.Request{}); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestHitNoFeasibleServer(t *testing.T) {
	cl, ctl := testEnv(t, 1, 2, cluster.Resources{CPU: 1, Memory: 64})
	// Two 1-CPU servers; 3 single-CPU tasks cannot fit.
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 2, 1, 1)}, 1)
	if err := (&HitScheduler{}).Schedule(req); err == nil {
		t.Error("infeasible request accepted")
	}
}

func BenchmarkHitSchedule64Servers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo, err := topology.NewTree(3, 4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
		if err != nil {
			b.Fatal(err)
		}
		cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
		if err != nil {
			b.Fatal(err)
		}
		ctl := controller.New(topo)
		job := &workload.Job{ID: 0, NumMaps: 16, NumReduces: 8, InputGB: 16}
		job.Shuffle = make([][]float64, 16)
		for m := range job.Shuffle {
			job.Shuffle[m] = make([]float64, 8)
			for r := range job.Shuffle[m] {
				job.Shuffle[m][r] = 0.25
			}
		}
		job.MapComputeSec = make([]float64, 16)
		job.ReduceComputeSec = make([]float64, 8)
		req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job},
			cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := (&HitScheduler{}).Schedule(req); err != nil {
			b.Fatal(err)
		}
	}
}
