package scheduler_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/reference"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// testEnv creates a fresh tree cluster + controller.
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

// uniformJob builds an m x r job with `cell` GB per shuffle pair.
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

// checkScheduled asserts every task container is placed, policies exist for
// all flows and are satisfied, and the cluster invariants hold.
func checkScheduled(t *testing.T, req *scheduler.Request) {
	t.Helper()
	for _, task := range req.Tasks {
		if !req.Cluster.Container(task.Container).Placed() {
			t.Errorf("container %d unplaced after scheduling", task.Container)
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

func TestCapacitySchedulesEverything(t *testing.T) {
	cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 4, Memory: 4096})
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 6, 3, 1)}, 1)
	if err := (scheduler.Capacity{}).Schedule(req); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	checkScheduled(t, req)
	if got := totalCost(t, req); got <= 0 {
		t.Errorf("total cost = %v, want > 0 for a spread-out job", got)
	}
}

func TestCapacitySpreadsLoad(t *testing.T) {
	// 16 servers x 4 CPU, 16 single-CPU tasks: most-free-first never stacks
	// a second task while an empty server remains.
	cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 4, Memory: 4096})
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 8, 8, 1)}, 1)
	if err := (scheduler.Capacity{}).Schedule(req); err != nil {
		t.Fatal(err)
	}
	for _, s := range cl.Servers() {
		if got := len(cl.ContainersOn(s)); got != 1 {
			t.Errorf("server %d hosts %d containers, want exactly 1 (spread)", s, got)
		}
	}
}

func TestRandomSchedulerDeterministicPerSeed(t *testing.T) {
	place := func(seed int64) []topology.NodeID {
		cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 4, Memory: 4096})
		req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 4, 2, 1)}, seed)
		if err := (scheduler.Random{}).Schedule(req); err != nil {
			t.Fatal(err)
		}
		checkScheduled(t, req)
		var out []topology.NodeID
		for _, task := range req.Tasks {
			out = append(out, cl.Container(task.Container).Server())
		}
		return out
	}
	a := place(7)
	b := place(7)
	c := place(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical placements (suspicious)")
	}
}

func TestPNABiasesReducesTowardMaps(t *testing.T) {
	// One map, one reduce, heavy flow. PNA should co-locate them on the same
	// rack far more often than uniform (1/fanout at rack granularity).
	sameRack := 0
	const trials = 60
	for seed := int64(0); seed < trials; seed++ {
		cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 1, Memory: 4096})
		req, jt := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 1, 1, 20)}, seed)
		if err := (scheduler.PNA{}).Schedule(req); err != nil {
			t.Fatal(err)
		}
		checkScheduled(t, req)
		topo := cl.Topology()
		ms := cl.Container(jt[0].Maps[0]).Server()
		rs := cl.Container(jt[0].Reduces[0]).Server()
		if topo.AccessSwitch(ms) == topo.AccessSwitch(rs) {
			sameRack++
		}
	}
	// Uniform placement across 4 racks would co-locate ~25% of the time;
	// PNA's inverse-cost weighting drives it to ~50%. Requiring 40% keeps
	// the assertion far above uniform yet statistically safe for n=60.
	if sameRack < trials*2/5 {
		t.Errorf("PNA co-located reduce with map in %d/%d trials; want >= %d", sameRack, trials, trials*2/5)
	}
}

func TestPNAHandlesZeroCostCandidates(t *testing.T) {
	// Reduce with no incident flows (maps all filtered): all costs zero.
	cl, ctl := testEnv(t, 2, 2, cluster.Resources{CPU: 2, Memory: 4096})
	job := uniformJob(t, 0, 1, 1, 0) // zero shuffle -> no flows built
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{job}, 3)
	if len(req.Flows) != 0 {
		t.Fatalf("zero-cell job built %d flows", len(req.Flows))
	}
	if err := (scheduler.PNA{}).Schedule(req); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	checkScheduled(t, req)
}

func TestBruteForceBeatsBaselinesOnTinyInstance(t *testing.T) {
	runWith := func(s scheduler.Scheduler, seed int64) float64 {
		cl, ctl := testEnv(t, 2, 2, cluster.Resources{CPU: 1, Memory: 2048})
		req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 2, 1, 5)}, seed)
		if err := s.Schedule(req); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		checkScheduled(t, req)
		return totalCost(t, req)
	}
	for seed := int64(0); seed < 5; seed++ {
		opt := runWith(reference.BruteForce{}, seed)
		capc := runWith(scheduler.Capacity{}, seed)
		rnd := runWith(scheduler.Random{}, seed)
		if opt > capc+1e-9 {
			t.Errorf("seed %d: bruteforce %v > capacity %v", seed, opt, capc)
		}
		if opt > rnd+1e-9 {
			t.Errorf("seed %d: bruteforce %v > random %v", seed, opt, rnd)
		}
	}
}

func TestBruteForceRejectsLargeSearch(t *testing.T) {
	cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 8, Memory: 65536})
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 10, 10, 1)}, 1)
	if err := (reference.BruteForce{}).Schedule(req); err == nil {
		t.Error("oversized search accepted")
	}
}

func TestRequestValidateErrors(t *testing.T) {
	cl, ctl := testEnv(t, 1, 2, cluster.Resources{CPU: 1, Memory: 1})
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		req  scheduler.Request
	}{
		{"nil cluster", scheduler.Request{Controller: ctl, Rand: rng}},
		{"nil controller", scheduler.Request{Cluster: cl, Rand: rng}},
		{"nil rand", scheduler.Request{Cluster: cl, Controller: ctl}},
		{"unknown container", scheduler.Request{Cluster: cl, Controller: ctl, Rand: rng,
			Tasks: []scheduler.Task{{Container: 99}}}},
		{"bad flow", scheduler.Request{Cluster: cl, Controller: ctl, Rand: rng,
			Flows: []*flow.Flow{{ID: 0, Src: 1, Dst: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.req.Validate(); err == nil {
				t.Error("invalid request accepted")
			}
		})
	}
}

func TestRequestValidateFixedUnplaced(t *testing.T) {
	cl, ctl := testEnv(t, 1, 2, cluster.Resources{CPU: 2, Memory: 2048})
	ct, err := cl.NewContainer(cluster.Resources{CPU: 1, Memory: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := scheduler.Request{
		Cluster: cl, Controller: ctl, Rand: rand.New(rand.NewSource(1)),
		Tasks: []scheduler.Task{{Container: ct.ID}},
		Fixed: map[cluster.ContainerID]bool{ct.ID: true},
	}
	if err := req.Validate(); err == nil {
		t.Error("fixed-but-unplaced container accepted")
	}
	if err := cl.Place(ct.ID, cl.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	if err := req.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestSchedulersRespectFixedContainers(t *testing.T) {
	for _, s := range []scheduler.Scheduler{scheduler.Capacity{}, scheduler.Random{}, scheduler.PNA{}} {
		t.Run(s.Name(), func(t *testing.T) {
			cl, ctl := testEnv(t, 2, 2, cluster.Resources{CPU: 4, Memory: 8192})
			req, jt := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 2, 2, 1)}, 4)
			// Pin the reduces.
			pinned := map[cluster.ContainerID]topology.NodeID{}
			for _, c := range jt[0].Reduces {
				srv := cl.Servers()[0]
				if err := cl.Place(c, srv); err != nil {
					t.Fatal(err)
				}
				req.Fixed[c] = true
				pinned[c] = srv
			}
			if err := s.Schedule(req); err != nil {
				t.Fatal(err)
			}
			for c, want := range pinned {
				if got := cl.Container(c).Server(); got != want {
					t.Errorf("fixed container %d moved to %d", c, got)
				}
			}
			checkScheduled(t, req)
		})
	}
}

func TestSortTasksByShuffleOutput(t *testing.T) {
	job := uniformJob(t, 0, 3, 2, 1)
	job.Shuffle[0] = []float64{5, 5} // map 0 outputs 10
	job.Shuffle[1] = []float64{1, 1} // map 1 outputs 2
	job.Shuffle[2] = []float64{3, 3} // map 2 outputs 6
	tasks := []scheduler.Task{
		{Job: job, Kind: workload.MapTask, Index: 1},
		{Job: job, Kind: workload.MapTask, Index: 0},
		{Job: job, Kind: workload.MapTask, Index: 2},
		{Job: job, Kind: workload.ReduceTask, Index: 0}, // consumes 9
		{Job: nil},
	}
	scheduler.SortTasksByShuffleOutput(tasks)
	if tasks[0].Index != 0 || tasks[0].Kind != workload.MapTask {
		t.Errorf("heaviest first: got index %d", tasks[0].Index)
	}
	if tasks[1].Kind != workload.ReduceTask {
		t.Errorf("second should be the 9 GB reduce, got %v %d", tasks[1].Kind, tasks[1].Index)
	}
	if tasks[len(tasks)-1].Job != nil {
		t.Error("nil-job task should sort last")
	}
}

func TestNewJobRequestErrors(t *testing.T) {
	cl, ctl := testEnv(t, 1, 2, cluster.Resources{CPU: 1, Memory: 1})
	rng := rand.New(rand.NewSource(1))
	if _, _, err := scheduler.NewJobRequest(nil, ctl, nil, cluster.Resources{}, rng); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, _, err := scheduler.NewJobRequest(cl, ctl, nil, cluster.Resources{}, nil); err == nil {
		t.Error("nil rng accepted")
	}
	bad := &workload.Job{NumMaps: 0, NumReduces: 1}
	if _, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{bad}, cluster.Resources{}, rng); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestCAMSchedulesAndBeatsCapacityOnCost(t *testing.T) {
	runCost := func(s scheduler.Scheduler, seed int64) float64 {
		cl, ctl := testEnv(t, 2, 4, cluster.Resources{CPU: 2, Memory: 8192})
		req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 6, 4, 3)}, seed)
		if err := s.Schedule(req); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		checkScheduled(t, req)
		return totalCost(t, req)
	}
	var cam, capc float64
	for seed := int64(0); seed < 6; seed++ {
		cam += runCost(scheduler.CAM{}, seed)
		capc += runCost(scheduler.Capacity{}, seed)
	}
	if cam > capc {
		t.Errorf("CAM aggregate cost %v > capacity %v", cam, capc)
	}
	t.Logf("aggregate cost: cam=%.1f capacity=%.1f", cam, capc)
}

func TestCAMOptimalOnTinyInstance(t *testing.T) {
	// With maps pinned Capacity-style first, CAM's reduce placement is an
	// exact min-cost assignment; compare against brute force with the same
	// map pre-placement.
	cl, ctl := testEnv(t, 2, 2, cluster.Resources{CPU: 1, Memory: 2048})
	job := uniformJob(t, 0, 2, 2, 4)
	req, jt := buildRequest(t, cl, ctl, []*workload.Job{job}, 2)
	// Pre-place maps exactly as CAM would (most-free order).
	for _, c := range jt[0].Maps {
		s, err := scheduler.MostFreeServer(cl, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(c, s); err != nil {
			t.Fatal(err)
		}
		req.Fixed[c] = true
	}
	if err := (scheduler.CAM{}).Schedule(req); err != nil {
		t.Fatal(err)
	}
	camCost := totalCost(t, req)

	cl2, ctl2 := testEnv(t, 2, 2, cluster.Resources{CPU: 1, Memory: 2048})
	req2, jt2 := buildRequest(t, cl2, ctl2, []*workload.Job{job}, 2)
	for _, c := range jt2[0].Maps {
		s, err := scheduler.MostFreeServer(cl2, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl2.Place(c, s); err != nil {
			t.Fatal(err)
		}
		req2.Fixed[c] = true
	}
	if err := (reference.BruteForce{}).Schedule(req2); err != nil {
		t.Fatal(err)
	}
	optCost := totalCost(t, req2)
	if camCost > optCost+1e-9 {
		t.Errorf("CAM cost %v > brute-force optimum %v with fixed maps", camCost, optCost)
	}
}

func TestCAMRespectsFixed(t *testing.T) {
	cl, ctl := testEnv(t, 2, 2, cluster.Resources{CPU: 4, Memory: 8192})
	req, jt := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 2, 2, 1)}, 4)
	srv := cl.Servers()[0]
	if err := cl.Place(jt[0].Reduces[0], srv); err != nil {
		t.Fatal(err)
	}
	req.Fixed[jt[0].Reduces[0]] = true
	if err := (scheduler.CAM{}).Schedule(req); err != nil {
		t.Fatal(err)
	}
	if got := cl.Container(jt[0].Reduces[0]).Server(); got != srv {
		t.Errorf("fixed reduce moved to %d", got)
	}
	checkScheduled(t, req)
}

func TestSchedulerNames(t *testing.T) {
	names := map[string]scheduler.Scheduler{
		"capacity": scheduler.Capacity{},
		"random":   scheduler.Random{},
		"pna":      scheduler.PNA{},
		"cam":      scheduler.CAM{},
	}
	for want, s := range names {
		if got := s.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestInstallShortestPoliciesFallsBackUnderSaturation(t *testing.T) {
	// Shortest paths all share the single aggregation chain of the paper
	// tree; with tight switch capacity the second flow's shortest path is
	// infeasible and the optimizer fallback must route it (or report a
	// coherent error when no route exists at all).
	topo, err := topology.NewPaperTree(topology.LinkParams{Bandwidth: 1, SwitchCapacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(topo)
	// Two heavy cross-rack flows: rate 2 each; access switches hold 3.
	job := uniformJob(t, 0, 2, 1, 2)
	req, jt := buildRequestWith(t, cl, ctl, job, 5)
	// Pin both maps in rack 0 and the reduce in rack 1 so flows share the
	// aggregation chain.
	srv := cl.Servers()
	if err := cl.Place(jt.Maps[0], srv[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(jt.Maps[1], srv[1]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(jt.Reduces[0], srv[9]); err != nil {
		t.Fatal(err)
	}
	req.Fixed[jt.Maps[0]] = true
	req.Fixed[jt.Maps[1]] = true
	req.Fixed[jt.Reduces[0]] = true
	err = scheduler.InstallShortestPolicies(req)
	// Both flows must traverse the single aggregation switch (cap 3, need
	// 4): no feasible routing exists, so a coherent error is correct.
	if err == nil {
		// If it succeeded, every policy must be installed and satisfied.
		for _, f := range req.Flows {
			if ctl.Policy(f.ID) == nil {
				t.Fatalf("flow %d missing policy", f.ID)
			}
		}
	} else if !strings.Contains(err.Error(), "unroutable") {
		t.Errorf("unexpected error: %v", err)
	}
}

// buildRequestWith is buildRequest for a single prepared job.
func buildRequestWith(t *testing.T, cl *cluster.Cluster, ctl *controller.Controller, job *workload.Job, seed int64) (*scheduler.Request, scheduler.JobTasks) {
	t.Helper()
	req, jt, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job}, cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return req, jt[0]
}

func TestCapacityNoRoomError(t *testing.T) {
	cl, ctl := testEnv(t, 1, 2, cluster.Resources{CPU: 1, Memory: 64})
	// 2 servers x 1 CPU; a 3-task job cannot fit.
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 2, 1, 1)}, 1)
	if err := (scheduler.Capacity{}).Schedule(req); err == nil {
		t.Error("over-committed request accepted")
	}
	if err := (scheduler.PNA{}).Schedule(req); err == nil {
		t.Error("PNA accepted over-committed request")
	}
	if err := (scheduler.Random{}).Schedule(req); err == nil {
		t.Error("Random accepted over-committed request")
	}
	if err := (scheduler.CAM{}).Schedule(req); err == nil {
		t.Error("CAM accepted over-committed request")
	}
}
