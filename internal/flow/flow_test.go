package flow_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/reference"
	"repro/internal/topology"
	"repro/internal/workload"
)

// testEnv bundles a fat-tree topology with a cluster and a helper that pins
// containers to fixed servers via a map-backed Locator.
type testEnv struct {
	topo *topology.Topology
	cl   *cluster.Cluster
	loc  map[cluster.ContainerID]topology.NodeID
}

func (e *testEnv) locator() flow.Locator {
	return flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID {
		if s, ok := e.loc[c]; ok {
			return s
		}
		return topology.None
	})
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	topo, err := topology.NewFatTree(4, topology.LinkParams{})
	if err != nil {
		t.Fatalf("NewFatTree: %v", err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 8, Memory: 8192})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return &testEnv{topo: topo, cl: cl, loc: make(map[cluster.ContainerID]topology.NodeID)}
}

func (e *testEnv) newContainer(t *testing.T, srv topology.NodeID) cluster.ContainerID {
	t.Helper()
	ct, err := e.cl.NewContainer(cluster.Resources{CPU: 1, Memory: 512})
	if err != nil {
		t.Fatalf("NewContainer: %v", err)
	}
	e.loc[ct.ID] = srv
	return ct.ID
}

// shortestPolicy builds the flow's policy from one shortest path between its
// endpoints.
func (e *testEnv) shortestPolicy(t *testing.T, f *flow.Flow) *flow.Policy {
	t.Helper()
	src := e.loc[f.Src]
	dst := e.loc[f.Dst]
	path := e.topo.ShortestPath(src, dst)
	if path == nil {
		t.Fatalf("no path between %d and %d", src, dst)
	}
	return flow.PolicyFromPath(e.topo, f.ID, path)
}

func TestFlowValidate(t *testing.T) {
	f := &flow.Flow{ID: 1, Src: 0, Dst: 1, SizeGB: 2, Rate: 2}
	if err := f.Validate(); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
	if (&flow.Flow{Src: 3, Dst: 3}).Validate() == nil {
		t.Error("self flow accepted")
	}
	if (&flow.Flow{Src: 0, Dst: 1, SizeGB: -1}).Validate() == nil {
		t.Error("negative size accepted")
	}
	if (&flow.Flow{ID: -1, Src: 0, Dst: 1}).Validate() == nil {
		t.Error("negative ID accepted")
	}
}

// byID adapts a policy map to TotalCost's lookup.
func byID(pols map[flow.ID]*flow.Policy) func(flow.ID) *flow.Policy {
	return func(id flow.ID) *flow.Policy { return pols[id] }
}

func TestPolicySatisfied(t *testing.T) {
	e := newTestEnv(t)
	srv := e.topo.Servers()
	a := e.newContainer(t, srv[0])
	b := e.newContainer(t, srv[15])
	f := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 1}
	p := e.shortestPolicy(t, f)
	if err := p.Satisfied(e.topo); err != nil {
		t.Errorf("shortest-path policy unsatisfied: %v", err)
	}
	// Corrupt the type requirement.
	bad := &flow.Policy{Flow: p.Flow, List: p.List, Types: append([]string{"bogus"}, p.Types[1:]...)}
	if bad.Satisfied(e.topo) == nil {
		t.Error("type mismatch accepted")
	}
	// List/Types length mismatch.
	bad = &flow.Policy{Flow: p.Flow, List: p.List, Types: p.Types[:len(p.Types)-1]}
	if bad.Satisfied(e.topo) == nil {
		t.Error("length mismatch accepted")
	}
	// Server in the switch list.
	bad = &flow.Policy{Flow: p.Flow, List: append([]topology.NodeID{srv[0]}, p.List[1:]...), Types: p.Types}
	if bad.Satisfied(e.topo) == nil {
		t.Error("server in list accepted")
	}
	// Invalid node.
	bad = &flow.Policy{Flow: p.Flow, List: append([]topology.NodeID{-7}, p.List[1:]...), Types: p.Types}
	if bad.Satisfied(e.topo) == nil {
		t.Error("invalid node accepted")
	}
}

func TestPolicyFromPathExtractsSwitches(t *testing.T) {
	e := newTestEnv(t)
	srv := e.topo.Servers()
	path := e.topo.ShortestPath(srv[0], srv[15])
	p := flow.PolicyFromPath(e.topo, 3, path)
	// Inter-pod fat-tree path: edge, agg, core, agg, edge = 5 switches.
	if p.Len() != 5 {
		t.Fatalf("policy len = %d, want 5 (%v)", p.Len(), p.List)
	}
	wantTypes := []string{topology.TypeAccess, topology.TypeAggregation, topology.TypeCore, topology.TypeAggregation, topology.TypeAccess}
	for i, typ := range wantTypes {
		if p.Types[i] != typ {
			t.Errorf("type[%d] = %q, want %q", i, p.Types[i], typ)
		}
	}
	if p.Flow != 3 {
		t.Errorf("policy flow = %d, want 3", p.Flow)
	}
}

func TestFlowCostAndDelay(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()

	// Same edge switch: 2-hop route, 1 switch.
	a := e.newContainer(t, srv[0])
	b := e.newContainer(t, srv[1])
	f := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 4, Rate: 2}
	p := e.shortestPolicy(t, f)
	cost, err := cm.FlowCost(f, p, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2*2 { // rate 2 x 2 hops x unit 1
		t.Errorf("same-rack cost = %v, want 4", cost)
	}
	delay, err := cm.FlowDelay(f, p, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if delay != 4*1 { // size 4 x 1 switch x 1 T
		t.Errorf("same-rack delay = %v GB*T, want 4", delay)
	}
	hops, err := cm.RouteHops(f, p, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if hops != 2 {
		t.Errorf("hops = %d, want 2", hops)
	}

	// Inter-pod: 6 hops, 5 switches.
	c := e.newContainer(t, srv[15])
	g := &flow.Flow{ID: 1, Src: a, Dst: c, SizeGB: 4, Rate: 2}
	pg := e.shortestPolicy(t, g)
	cost, err = cm.FlowCost(g, pg, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2*6 {
		t.Errorf("inter-pod cost = %v, want 12", cost)
	}
	delay, _ = cm.FlowDelay(g, pg, e.locator())
	if delay != 4*5 {
		t.Errorf("inter-pod delay = %v, want 20", delay)
	}
}

// TestFlowCostSumsRoute pins FlowCost, which walks the policy without
// building a route, to the Eq. 2 sum over RouteNodes' route in the same
// left-to-right order, bit for bit, and checks it allocates nothing.
func TestFlowCostSumsRoute(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()
	loc := e.locator()
	a := e.newContainer(t, srv[0])
	for i, s := range []topology.NodeID{srv[0], srv[1], srv[2], srv[15]} {
		b := e.newContainer(t, s)
		f := &flow.Flow{ID: flow.ID(i), Src: a, Dst: b, SizeGB: 1, Rate: 0.1 * float64(i+3)}
		p := e.shortestPolicy(t, f)
		route, err := cm.RouteNodes(f, p, loc)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for j := 1; j < len(route); j++ {
			want += cm.SegmentCost(f.Rate, route[j-1], route[j])
		}
		got, err := cm.FlowCost(f, p, loc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("flow to server %d: FlowCost %v, route sum %v", s, got, want)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = cm.FlowCost(f, p, loc) }); n != 0 {
			t.Errorf("flow to server %d: FlowCost allocates %v times per call, want 0", s, n)
		}
	}
}

func TestFlowCostUnplacedEndpoint(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	f := &flow.Flow{ID: 0, Src: 100, Dst: 101, SizeGB: 1, Rate: 1}
	p := &flow.Policy{Flow: 0}
	if _, err := cm.FlowCost(f, p, e.locator()); err == nil {
		t.Error("unplaced endpoints accepted")
	}
	if _, err := cm.FlowDelay(f, p, e.locator()); err == nil {
		t.Error("unplaced endpoints accepted in FlowDelay")
	}
}

func TestTotalCost(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()
	a := e.newContainer(t, srv[0])
	b := e.newContainer(t, srv[1])
	c := e.newContainer(t, srv[2])
	f1 := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 1}
	f2 := &flow.Flow{ID: 1, Src: a, Dst: c, SizeGB: 1, Rate: 1}
	pols := map[flow.ID]*flow.Policy{
		0: e.shortestPolicy(t, f1),
		1: e.shortestPolicy(t, f2),
	}
	total, err := cm.TotalCost([]*flow.Flow{f1, f2}, byID(pols), e.locator())
	if err != nil {
		t.Fatal(err)
	}
	// srv0-srv1 same edge (2 hops); srv0-srv2 different edge same pod (4 hops).
	if total != 2+4 {
		t.Errorf("total = %v, want 6", total)
	}
	delete(pols, 1)
	if _, err := cm.TotalCost([]*flow.Flow{f1, f2}, byID(pols), e.locator()); err == nil {
		t.Error("missing policy accepted")
	}
}

func TestSwapUtilityMatchesCostDelta(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()
	a := e.newContainer(t, srv[0])
	b := e.newContainer(t, srv[15])
	f := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 3}
	p := e.shortestPolicy(t, f)
	loc := e.locator()

	dag := e.topo.ShortestPathDAG(srv[0], srv[15])
	stages := dag.SwitchStages()
	// Find a stage with an alternative switch and check utility == cost delta.
	found := false
	for i, stage := range stages {
		for _, w := range stage {
			if w == p.List[i] {
				continue
			}
			found = true
			u, err := reference.SwapUtility(cm, f, p, i, w, loc)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := cm.FlowCost(f, p, loc)
			q, err := reference.ApplySwap(e.topo, p, i, w)
			if err != nil {
				t.Fatalf("ApplySwap: %v", err)
			}
			after, _ := cm.FlowCost(f, q, loc)
			if math.Abs((before-after)-u) > 1e-9 {
				t.Errorf("stage %d swap to %d: utility %v != cost delta %v", i, w, u, before-after)
			}
		}
	}
	if !found {
		t.Fatal("fat-tree provided no alternative switches; test vacuous")
	}
	// Out of range.
	if _, err := reference.SwapUtility(cm, f, p, -1, 0, loc); err == nil {
		t.Error("negative position accepted")
	}
	if _, err := reference.SwapUtility(cm, f, p, p.Len(), 0, loc); err == nil {
		t.Error("overflow position accepted")
	}
}

func TestApplySwapTypeChecked(t *testing.T) {
	e := newTestEnv(t)
	srv := e.topo.Servers()
	a := e.newContainer(t, srv[0])
	b := e.newContainer(t, srv[15])
	f := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 1}
	p := e.shortestPolicy(t, f)
	core := e.topo.SwitchesOfType(topology.TypeCore)[0]
	// Position 0 requires an access switch; a core switch must be rejected.
	if _, err := reference.ApplySwap(e.topo, p, 0, core); err == nil {
		t.Error("type-mismatched swap accepted")
	}
	if _, err := reference.ApplySwap(e.topo, p, 0, srv[3]); err == nil {
		t.Error("server swap target accepted")
	}
	if _, err := reference.ApplySwap(e.topo, p, 99, core); err == nil {
		t.Error("out-of-range swap accepted")
	}
	// A valid swap returns a new policy and leaves p as it was.
	old := p.List[0]
	var w topology.NodeID = topology.None
	for _, cand := range e.topo.SwitchesOfType(p.Types[0]) {
		if cand != old {
			w = cand
			break
		}
	}
	q, err := reference.ApplySwap(e.topo, p, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	if q.List[0] != w || p.List[0] != old {
		t.Errorf("swap to %d: new policy has %d, original now has %d (was %d)", w, q.List[0], p.List[0], old)
	}
}

func TestMoveUtilityMatchesCostDelta(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()
	a := e.newContainer(t, srv[0])
	b := e.newContainer(t, srv[15])
	c := e.newContainer(t, srv[8])
	f1 := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 2}
	f2 := &flow.Flow{ID: 1, Src: a, Dst: c, SizeGB: 1, Rate: 1}
	flows := []*flow.Flow{f1, f2}
	pols := map[flow.ID]*flow.Policy{0: e.shortestPolicy(t, f1), 1: e.shortestPolicy(t, f2)}
	loc := e.locator()

	for _, target := range []topology.NodeID{srv[1], srv[4], srv[12]} {
		u, err := reference.MoveUtility(cm, a, target, flows, pols, loc)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := cm.TotalCost(flows, byID(pols), loc)
		old := e.loc[a]
		e.loc[a] = target
		after, _ := cm.TotalCost(flows, byID(pols), loc)
		e.loc[a] = old
		if math.Abs((before-after)-u) > 1e-9 {
			t.Errorf("move to %d: utility %v != cost delta %v", target, u, before-after)
		}
	}
}

func TestMoveUtilityEmptyPolicy(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()
	a := e.newContainer(t, srv[0])
	b := e.newContainer(t, srv[0]) // same server: empty policy
	f := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 5}
	pols := map[flow.ID]*flow.Policy{0: {Flow: 0}}
	loc := e.locator()
	// Moving a away from b costs dist(new, srv0) * 5.
	u, err := reference.MoveUtility(cm, a, srv[1], []*flow.Flow{f}, pols, loc)
	if err != nil {
		t.Fatal(err)
	}
	if u != -5*2 {
		t.Errorf("utility = %v, want -10 (moving apart by 2 hops at rate 5)", u)
	}
}

func TestMoveUtilityErrors(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	if _, err := reference.MoveUtility(cm, 999, e.topo.Servers()[0], nil, nil, e.locator()); err == nil {
		t.Error("unplaced container accepted")
	}
}

func TestIncidentFlows(t *testing.T) {
	f1 := &flow.Flow{ID: 0, Src: 1, Dst: 2}
	f2 := &flow.Flow{ID: 1, Src: 3, Dst: 1}
	f3 := &flow.Flow{ID: 2, Src: 4, Dst: 5}
	got := flow.IncidentFlows(1, []*flow.Flow{f1, f2, f3})
	if len(got) != 2 {
		t.Fatalf("incident = %d flows, want 2", len(got))
	}
}

func TestClusterLocator(t *testing.T) {
	e := newTestEnv(t)
	ct, err := e.cl.NewContainer(cluster.Resources{CPU: 1, Memory: 1})
	if err != nil {
		t.Fatal(err)
	}
	loc := flow.ClusterLocator(e.cl)
	if got := loc.ServerOf(ct.ID); got != topology.None {
		t.Errorf("unplaced container server = %d, want None", got)
	}
	srv := e.cl.Servers()[2]
	if err := e.cl.Place(ct.ID, srv); err != nil {
		t.Fatal(err)
	}
	if got := loc.ServerOf(ct.ID); got != srv {
		t.Errorf("ServerOf = %d, want %d", got, srv)
	}
	if got := loc.ServerOf(cluster.ContainerID(99)); got != topology.None {
		t.Errorf("unknown container server = %d, want None", got)
	}
}

// TestQuickSeparabilityNonAdjacentSwaps verifies Eq. 6: the joint utility of
// rescheduling two non-adjacent switches equals the sum of the individual
// utilities (their affected segments are disjoint).
func TestQuickSeparabilityNonAdjacentSwaps(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()
	rng := rand.New(rand.NewSource(2))

	f := func(srcIdx, dstIdx uint8) bool {
		s1 := srv[int(srcIdx)%len(srv)]
		s2 := srv[int(dstIdx)%len(srv)]
		if s1 == s2 {
			return true
		}
		a := cluster.ContainerID(1000 + int(srcIdx))
		b := cluster.ContainerID(2000 + int(dstIdx))
		loc := flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID {
			if c == a {
				return s1
			}
			return s2
		})
		fl := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 1 + rng.Float64()}
		path := e.topo.ShortestPath(s1, s2)
		p := flow.PolicyFromPath(e.topo, 0, path)
		if p.Len() < 3 {
			return true // no two non-adjacent positions
		}
		// Candidates: same type anywhere in the graph (utility is defined
		// regardless of adjacency; cost uses graph distance).
		i, j := 0, 2
		wi := pickSameType(e.topo, p, i, rng)
		wj := pickSameType(e.topo, p, j, rng)
		ui, err := reference.SwapUtility(cm, fl, p, i, wi, loc)
		if err != nil {
			return false
		}
		uj, err := reference.SwapUtility(cm, fl, p, j, wj, loc)
		if err != nil {
			return false
		}
		before, err := cm.FlowCost(fl, p, loc)
		if err != nil {
			return false
		}
		q, err := reference.ApplySwap(e.topo, p, i, wi)
		if err != nil {
			return false
		}
		if q, err = reference.ApplySwap(e.topo, q, j, wj); err != nil {
			return false
		}
		after, err := cm.FlowCost(fl, q, loc)
		if err != nil {
			return false
		}
		return math.Abs((before-after)-(ui+uj)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func pickSameType(topo *topology.Topology, p *flow.Policy, i int, rng *rand.Rand) topology.NodeID {
	cands := topo.SwitchesOfType(p.Types[i])
	return cands[rng.Intn(len(cands))]
}

// TestQuickSeparabilityMoveAndSwap verifies Eq. 11: the utility of jointly
// moving the source container and rescheduling an intermediate switch equals
// the sum of the independent utilities.
func TestQuickSeparabilityMoveAndSwap(t *testing.T) {
	e := newTestEnv(t)
	cm := flow.NewCostModelWithOracle(netstate.New(e.topo))
	srv := e.topo.Servers()
	rng := rand.New(rand.NewSource(9))

	f := func(srcIdx, dstIdx, tgtIdx uint8) bool {
		s1 := srv[int(srcIdx)%len(srv)]
		s2 := srv[int(dstIdx)%len(srv)]
		tgt := srv[int(tgtIdx)%len(srv)]
		if s1 == s2 {
			return true
		}
		a, b := cluster.ContainerID(1), cluster.ContainerID(2)
		cur := map[cluster.ContainerID]topology.NodeID{a: s1, b: s2}
		loc := flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID { return cur[c] })
		fl := &flow.Flow{ID: 0, Src: a, Dst: b, SizeGB: 1, Rate: 2}
		p := flow.PolicyFromPath(e.topo, 0, e.topo.ShortestPath(s1, s2))
		if p.Len() < 2 {
			return true
		}
		flows := []*flow.Flow{fl}
		pols := map[flow.ID]*flow.Policy{0: p}

		// Swap an intermediate (non-first) switch: disjoint from the source
		// move, which only touches the (server, list[0]) segment.
		i := 1 + rng.Intn(p.Len()-1)
		w := pickSameType(e.topo, p, i, rng)
		uSwap, err := reference.SwapUtility(cm, fl, p, i, w, loc)
		if err != nil {
			return false
		}
		uMove, err := reference.MoveUtility(cm, a, tgt, flows, pols, loc)
		if err != nil {
			return false
		}
		before, err := cm.TotalCost(flows, byID(pols), loc)
		if err != nil {
			return false
		}
		q, err := reference.ApplySwap(e.topo, p, i, w)
		if err != nil {
			return false
		}
		cur[a] = tgt
		after, err := cm.TotalCost(flows, byID(map[flow.ID]*flow.Policy{0: q}), loc)
		if err != nil {
			return false
		}
		return math.Abs((before-after)-(uSwap+uMove)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// testJob builds a uniform m x r job with 1 GB per shuffle cell.
func testJob(t *testing.T, m, r int) *workload.Job {
	t.Helper()
	j := &workload.Job{ID: 0, NumMaps: m, NumReduces: r, InputGB: float64(m)}
	j.Shuffle = make([][]float64, m)
	for i := range j.Shuffle {
		j.Shuffle[i] = make([]float64, r)
		for k := range j.Shuffle[i] {
			j.Shuffle[i][k] = 1
		}
	}
	j.MapComputeSec = make([]float64, m)
	j.ReduceComputeSec = make([]float64, r)
	if err := j.Validate(); err != nil {
		t.Fatalf("testJob invalid: %v", err)
	}
	return j
}

func TestBuildJobFlows(t *testing.T) {
	job := testJob(t, 3, 2)
	maps := []cluster.ContainerID{0, 1, 2}
	reds := []cluster.ContainerID{3, 4}
	flows, err := flow.BuildJobFlows(job, maps, reds, 10, flow.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 6 {
		t.Fatalf("flows = %d, want 6", len(flows))
	}
	if flows[0].ID != 10 {
		t.Errorf("first ID = %d, want 10", flows[0].ID)
	}
	var got float64
	for _, f := range flows {
		got += f.SizeGB
	}
	if math.Abs(got-job.TotalShuffleGB()) > 1e-9 {
		t.Errorf("total flow size %v != job shuffle %v", got, job.TotalShuffleGB())
	}
	for _, f := range flows {
		if f.Rate != f.SizeGB {
			t.Errorf("default rate %v != size %v", f.Rate, f.SizeGB)
		}
	}
}

func TestBuildJobFlowsErrors(t *testing.T) {
	jw := testJob(t, 2, 2)
	if _, err := flow.BuildJobFlows(jw, []cluster.ContainerID{0}, []cluster.ContainerID{2, 3}, 0, flow.BuildOptions{}); err == nil {
		t.Error("short map containers accepted")
	}
	if _, err := flow.BuildJobFlows(jw, []cluster.ContainerID{0, 1}, []cluster.ContainerID{2}, 0, flow.BuildOptions{}); err == nil {
		t.Error("short reduce containers accepted")
	}
	if _, err := flow.BuildJobFlows(jw, []cluster.ContainerID{0, 1}, []cluster.ContainerID{1, 3}, 0, flow.BuildOptions{}); err == nil {
		t.Error("shared container accepted")
	}
	if _, err := flow.BuildJobFlows(jw, []cluster.ContainerID{0, 1}, []cluster.ContainerID{2, 3}, 0, flow.BuildOptions{RatePerGB: -1}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestBuildJobFlowsMinSize(t *testing.T) {
	jw := testJob(t, 2, 2)
	jw.Shuffle[0][0] = 0.001
	flows, err := flow.BuildJobFlows(jw, []cluster.ContainerID{0, 1}, []cluster.ContainerID{2, 3}, 0, flow.BuildOptions{MinSizeGB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 3 {
		t.Errorf("flows = %d, want 3 (tiny cell dropped)", len(flows))
	}
}
