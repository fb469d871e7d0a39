package controller

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// env pins containers to servers with a map-backed locator over a fat-tree.
type env struct {
	topo *topology.Topology
	ctl  *Controller
	loc  map[cluster.ContainerID]topology.NodeID
}

func (e *env) locator() flow.Locator {
	return flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID {
		if s, ok := e.loc[c]; ok {
			return s
		}
		return topology.None
	})
}

func newEnv(t *testing.T, p topology.LinkParams) *env {
	t.Helper()
	topo, err := topology.NewFatTree(4, p)
	if err != nil {
		t.Fatalf("NewFatTree: %v", err)
	}
	return &env{topo: topo, ctl: New(topo), loc: make(map[cluster.ContainerID]topology.NodeID)}
}

func (e *env) flowBetween(id flow.ID, a, b cluster.ContainerID, srvA, srvB topology.NodeID, rate float64) *flow.Flow {
	e.loc[a] = srvA
	e.loc[b] = srvB
	return &flow.Flow{ID: id, Src: a, Dst: b, SizeGB: rate, Rate: rate}
}

func TestInstallUninstallLoadAccounting(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 2)
	p, err := e.ctl.ShortestPolicy(f, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctl.Install(f, p); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if e.ctl.NumPolicies() != 1 {
		t.Errorf("NumPolicies = %d", e.ctl.NumPolicies())
	}
	for _, w := range p.List {
		if got := e.ctl.Load(w); got != 2 {
			t.Errorf("load(%d) = %v, want 2", w, got)
		}
	}
	// Reinstalling the same flow must not double-count.
	if err := e.ctl.Install(f, p); err != nil {
		t.Fatalf("reinstall: %v", err)
	}
	for _, w := range p.List {
		if got := e.ctl.Load(w); got != 2 {
			t.Errorf("load(%d) after reinstall = %v, want 2", w, got)
		}
	}
	e.ctl.Uninstall(f.ID)
	for _, w := range p.List {
		if got := e.ctl.Load(w); got != 0 {
			t.Errorf("load(%d) after uninstall = %v, want 0", w, got)
		}
	}
	// Uninstalling twice is a no-op.
	e.ctl.Uninstall(f.ID)
	if e.ctl.NumPolicies() != 0 {
		t.Error("policies remain after uninstall")
	}
}

func TestInstallRejectsOverCapacity(t *testing.T) {
	// Capacity 3 per switch; two rate-2 flows sharing a switch must conflict.
	e := newEnv(t, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 3})
	srv := e.topo.Servers()
	f1 := e.flowBetween(0, 1, 2, srv[0], srv[1], 2)
	f2 := e.flowBetween(1, 3, 4, srv[0], srv[1], 2)
	p1, _ := e.ctl.ShortestPolicy(f1, e.locator())
	p2, _ := e.ctl.ShortestPolicy(f2, e.locator())
	if err := e.ctl.Install(f1, p1); err != nil {
		t.Fatal(err)
	}
	if err := e.ctl.Install(f2, p2); err == nil {
		t.Fatal("second flow fit through a saturated access switch")
	}
	// The first remains installed.
	if e.ctl.Policy(f1.ID) == nil {
		t.Error("first policy lost")
	}
}

// TestInstallChecksSwitchesInIDOrder pins Install's per-switch demand
// accounting: a switch listed k times needs k×rate, switches are checked
// in ascending ID order whatever the list order (so the violation reported
// is the lowest-ID one), and lists longer than the inline buffer behave the
// same.
func TestInstallChecksSwitchesInIDOrder(t *testing.T) {
	e := newEnv(t, topology.LinkParams{SwitchCapacity: 5})
	sw := e.topo.Switches()
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 2)
	policy := func(idx ...int) *flow.Policy {
		p := &flow.Policy{Flow: f.ID}
		for _, i := range idx {
			p.List = append(p.List, sw[i])
			p.Types = append(p.Types, e.topo.Node(sw[i]).Type)
		}
		return p
	}
	// sw[7] and sw[3] each appear three times (need 6 > 5), high ID first.
	err := e.ctl.Install(f, policy(9, 7, 12, 7, 3, 11, 3, 7, 3, 10, 13))
	if want := fmt.Sprintf("switch %d over capacity", sw[3]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Install error %v, want it to name %q", err, want)
	}
	if err := e.ctl.Install(f, policy(7, 3, 7, 3)); err != nil {
		t.Fatalf("two appearances (need 4 <= 5) rejected: %v", err)
	}
	long := policy(9, 7, 12, 7, 3, 11, 3, 10, 13, 14)
	if err := e.ctl.Install(f, long); err != nil {
		t.Fatalf("long list within capacity rejected: %v", err)
	}
	for i, w := range sw {
		n := 0
		for _, x := range long.List {
			if x == w {
				n++
			}
		}
		if got := e.ctl.Load(w); got != float64(2*n) {
			t.Errorf("switch %d (sw[%d]) load %v, want %v", w, i, got, 2*n)
		}
	}
}

// TestPolicyTable pins the per-flow tables: Policy returns the pointer
// Install was given, IDs may arrive in any order, a reinstall replaces
// and an unknown or out-of-range Uninstall is a no-op, NumPolicies and
// Policies track what is installed, and installing a built policy into a
// table that already covers its ID allocates nothing.
func TestPolicyTable(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	loc := e.locator()
	want := make(map[flow.ID]*flow.Policy)
	flows := make(map[flow.ID]*flow.Flow)
	for i, id := range []flow.ID{5, 2, 9, 0} {
		f := e.flowBetween(id, cluster.ContainerID(2*i), cluster.ContainerID(2*i+1), srv[i], srv[15-i], 1)
		p, err := e.ctl.OptimizePolicy(f, loc)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ctl.Install(f, p); err != nil {
			t.Fatal(err)
		}
		if got := e.ctl.Policy(id); got != p {
			t.Errorf("Policy(%d) = %p, want the installed %p", id, got, p)
		}
		want[id], flows[id] = p, f
	}
	for _, id := range []flow.ID{-1, 1, 3, 10, 1 << 40} {
		if p := e.ctl.Policy(id); p != nil {
			t.Errorf("Policy(%d) = %v for an ID never installed", id, p)
		}
		e.ctl.Uninstall(id)
	}
	if n := e.ctl.NumPolicies(); n != len(want) {
		t.Errorf("NumPolicies = %d, want %d", n, len(want))
	}

	// Reinstall flow 2 with a new policy value.
	p2, err := e.ctl.ShortestPolicy(flows[2], loc)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctl.Install(flows[2], p2); err != nil {
		t.Fatal(err)
	}
	want[2] = p2
	if got := e.ctl.Policy(2); got != p2 {
		t.Errorf("Policy(2) after reinstall = %p, want %p", got, p2)
	}
	e.ctl.Uninstall(5)
	delete(want, 5)
	if n := e.ctl.NumPolicies(); n != len(want) {
		t.Errorf("NumPolicies after reinstall and uninstall = %d, want %d", n, len(want))
	}
	got := e.ctl.Policies()
	if len(got) != len(want) {
		t.Errorf("Policies has %d entries, want %d", len(got), len(want))
	}
	for id, p := range want {
		if got[id] != p {
			t.Errorf("Policies()[%d] = %p, want %p", id, got[id], p)
		}
	}

	if n := testing.AllocsPerRun(20, func() {
		if err := e.ctl.Install(flows[9], want[9]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Install of a built policy allocates %v times, want 0", n)
	}
}

func TestInstallValidation(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[1], 1)
	p, _ := e.ctl.ShortestPolicy(f, e.locator())
	// Wrong flow ID on policy.
	bad := &flow.Policy{Flow: 9, List: p.List, Types: p.Types}
	if err := e.ctl.Install(f, bad); err == nil {
		t.Error("mismatched policy flow accepted")
	}
	// Unsatisfied policy.
	bad = &flow.Policy{Flow: p.Flow, List: p.List, Types: append([]string{"bogus"}, p.Types[1:]...)}
	if err := e.ctl.Install(f, bad); err == nil {
		t.Error("unsatisfied policy accepted")
	}
	// Invalid flow.
	selfFlow := &flow.Flow{ID: 3, Src: 5, Dst: 5, SizeGB: 1, Rate: 1}
	if err := e.ctl.Install(selfFlow, p); err == nil {
		t.Error("invalid flow accepted")
	}
}

func TestShortestPolicySameServer(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[0], 1)
	p, err := e.ctl.ShortestPolicy(f, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Errorf("same-server policy has %d switches", p.Len())
	}
	// OptimizePolicy agrees.
	opt, err := e.ctl.OptimizePolicy(f, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Len() != 0 {
		t.Errorf("optimized same-server policy has %d switches", opt.Len())
	}
}

func TestShortestPolicyUnplaced(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	f := &flow.Flow{ID: 0, Src: 1, Dst: 2, SizeGB: 1, Rate: 1}
	if _, err := e.ctl.ShortestPolicy(f, e.locator()); err == nil {
		t.Error("unplaced endpoints accepted")
	}
	if _, err := e.ctl.OptimizePolicy(f, e.locator()); err == nil {
		t.Error("unplaced endpoints accepted by optimizer")
	}
	if _, err := e.ctl.RandomPolicy(f, e.locator(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("unplaced endpoints accepted by random policy")
	}
}

func TestOptimizePolicyMatchesShortestWhenIdle(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	cm := e.ctl.CostModel()
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 1)
	loc := e.locator()
	opt, err := e.ctl.OptimizePolicy(f, loc)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := e.ctl.ShortestPolicy(f, loc)
	optCost, _ := cm.FlowCost(f, opt, loc)
	spCost, _ := cm.FlowCost(f, sp, loc)
	if optCost != spCost {
		t.Errorf("idle-network optimized cost %v != shortest %v", optCost, spCost)
	}
	if err := opt.Satisfied(e.topo); err != nil {
		t.Errorf("optimized policy unsatisfied: %v", err)
	}
}

func TestOptimizePolicyRoutesAroundHotSwitch(t *testing.T) {
	// The Figure 2 scenario: saturate one aggregation switch, then check the
	// optimizer picks an alternative of the same type.
	e := newEnv(t, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 4})
	srv := e.topo.Servers()
	loc := e.locator()

	// Flow 0 inter-pod via default shortest path.
	f0 := e.flowBetween(0, 1, 2, srv[0], srv[15], 1)
	p0, err := e.ctl.OptimizePolicy(f0, loc)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctl.Install(f0, p0); err != nil {
		t.Fatal(err)
	}
	// Saturate the aggregation switch flow 0 uses with a fat background flow.
	var agg topology.NodeID = topology.None
	for i, typ := range p0.Types {
		if typ == topology.TypeAggregation {
			agg = p0.List[i]
			break
		}
	}
	if agg == topology.None {
		t.Fatal("no aggregation switch on inter-pod route")
	}
	bg := e.flowBetween(1, 3, 4, srv[0], srv[15], 3) // 1 + 3 = 4 = capacity
	pbg := &flow.Policy{Flow: 1, List: p0.List, Types: p0.Types}
	if err := e.ctl.Install(bg, pbg); err != nil {
		t.Fatal(err)
	}
	// A third flow (rate 1) cannot use `agg` (4 + 1 > 4) and must route around.
	f2 := e.flowBetween(2, 5, 6, srv[0], srv[15], 1)
	p2, err := e.ctl.OptimizePolicy(f2, loc)
	if err != nil {
		t.Fatalf("OptimizePolicy with hot switch: %v", err)
	}
	for _, w := range p2.List {
		if w == agg {
			t.Errorf("optimizer routed through saturated switch %d", agg)
		}
	}
	if err := e.ctl.Install(f2, p2); err != nil {
		t.Errorf("routed-around policy rejected: %v", err)
	}
}

func TestOptimizeInstalledImprovesRandom(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	rng := rand.New(rand.NewSource(3))
	loc := e.locator()
	cm := e.ctl.CostModel()

	improvedSomewhere := false
	for i := 0; i < 20; i++ {
		f := e.flowBetween(flow.ID(i), cluster.ContainerID(2*i), cluster.ContainerID(2*i+1),
			srv[rng.Intn(len(srv))], srv[rng.Intn(len(srv))], 1)
		if e.loc[f.Src] == e.loc[f.Dst] {
			continue
		}
		rp, err := e.ctl.RandomPolicy(f, loc, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ctl.Install(f, rp); err != nil {
			t.Fatal(err)
		}
		before, _ := cm.FlowCost(f, rp, loc)
		u, _, _, err := e.ctl.OptimizeInstalledDetailed(f, loc)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := cm.FlowCost(f, e.ctl.Policy(f.ID), loc)
		if u < 0 {
			t.Errorf("negative utility %v", u)
		}
		if math.Abs((before-after)-u) > 1e-9 {
			t.Errorf("utility %v != cost delta %v", u, before-after)
		}
		if after > before {
			t.Errorf("optimization increased cost %v -> %v", before, after)
		}
		if u > 0 {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("random policies were never improved; optimizer inert")
	}
}

func TestOptimizeInstalledUnknownFlow(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	f := &flow.Flow{ID: 42, Src: 1, Dst: 2, SizeGB: 1, Rate: 1}
	if _, _, _, err := e.ctl.OptimizeInstalledDetailed(f, e.locator()); err == nil {
		t.Error("unknown flow accepted")
	}
}

// TestCandidatesEq4 checks Eq. 4's candidate set as Algorithm 1 and
// RandomPolicy filter it: the switches of position i's type, other than
// the incumbent, that fitsFn keeps for the flow's rate.
func TestCandidatesEq4(t *testing.T) {
	e := newEnv(t, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 2})
	srv := e.topo.Servers()
	loc := e.locator()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 1)
	p, err := e.ctl.OptimizePolicy(f, loc)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctl.Install(f, p); err != nil {
		t.Fatal(err)
	}
	candidates := func(i int) []topology.NodeID {
		fits := e.ctl.fitsFn(f.ID, f.Rate)
		var out []topology.NodeID
		for _, w := range e.ctl.oracle.SwitchesOfType(p.Types[i]) {
			if w != p.List[i] && fits(w) {
				out = append(out, w)
			}
		}
		return out
	}
	// Core stage: 4 cores total, 3 alternatives, all same type with headroom.
	coreIdx := -1
	for i, typ := range p.Types {
		if typ == topology.TypeCore {
			coreIdx = i
		}
	}
	if coreIdx < 0 {
		t.Fatal("no core stage")
	}
	cands := candidates(coreIdx)
	if len(cands) != 3 {
		t.Errorf("core candidates = %d, want 3", len(cands))
	}
	for _, w := range cands {
		if e.topo.Node(w).Type != topology.TypeCore {
			t.Errorf("candidate %d not a core switch", w)
		}
	}
	// Saturate one alternative core with a flow between two other pods (so
	// its edge/aggregation switches do not collide with f's); it must drop
	// out of the candidate set.
	other := cands[0]
	bg := e.flowBetween(1, 3, 4, srv[4], srv[8], 2)
	pbg, err := e.ctl.ShortestPolicy(bg, loc)
	if err != nil {
		t.Fatal(err)
	}
	for i, typ := range pbg.Types {
		if typ == topology.TypeCore {
			pbg.List[i] = other
		}
	}
	if err := e.ctl.Install(bg, pbg); err != nil {
		t.Fatal(err)
	}
	for _, w := range candidates(coreIdx) {
		if w == other {
			t.Errorf("saturated switch %d still a candidate", other)
		}
	}
}

func TestRandomPolicySatisfiedAndSeedStable(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	loc := e.locator()
	f := e.flowBetween(0, 1, 2, srv[0], srv[12], 1)
	p1, err := e.ctl.RandomPolicy(f, loc, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Satisfied(e.topo); err != nil {
		t.Errorf("random policy unsatisfied: %v", err)
	}
	p2, _ := e.ctl.RandomPolicy(f, loc, rand.New(rand.NewSource(5)))
	for i := range p1.List {
		if p1.List[i] != p2.List[i] {
			t.Fatal("same seed produced different random policies")
		}
	}
}

func TestTotalCostAndReset(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	loc := e.locator()
	f := e.flowBetween(0, 1, 2, srv[0], srv[1], 1)
	p, _ := e.ctl.ShortestPolicy(f, loc)
	if err := e.ctl.Install(f, p); err != nil {
		t.Fatal(err)
	}
	total, err := e.ctl.TotalCost([]*flow.Flow{f}, loc)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 { // same edge switch: 2 hops at rate 1
		t.Errorf("TotalCost = %v, want 2", total)
	}
	e.ctl.Uninstall(f.ID)
	if _, err := e.ctl.TotalCost([]*flow.Flow{f}, loc); err == nil {
		t.Error("TotalCost found policy after uninstall")
	}
}

func TestOverloadedSwitches(t *testing.T) {
	e := newEnv(t, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 10})
	srv := e.topo.Servers()
	loc := e.locator()
	f := e.flowBetween(0, 1, 2, srv[0], srv[1], 8)
	p, _ := e.ctl.ShortestPolicy(f, loc)
	if err := e.ctl.Install(f, p); err != nil {
		t.Fatal(err)
	}
	if got := e.ctl.OverloadedSwitches(); len(got) != 0 {
		t.Errorf("unexpected overloads %v", got)
	}
}

// TestQuickOptimizedNeverWorseThanRandom: for random endpoint pairs, the
// optimized policy's cost never exceeds the random policy's cost.
func TestQuickOptimizedNeverWorseThanRandom(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	cm := e.ctl.CostModel()
	rng := rand.New(rand.NewSource(17))
	loc := e.locator()

	f := func(aIdx, bIdx uint8) bool {
		sa := srv[int(aIdx)%len(srv)]
		sb := srv[int(bIdx)%len(srv)]
		if sa == sb {
			return true
		}
		fl := e.flowBetween(7, 100, 101, sa, sb, 1)
		rp, err := e.ctl.RandomPolicy(fl, loc, rng)
		if err != nil {
			return false
		}
		op, err := e.ctl.OptimizePolicy(fl, loc)
		if err != nil {
			return false
		}
		rc, err1 := cm.FlowCost(fl, rp, loc)
		oc, err2 := cm.FlowCost(fl, op, loc)
		if err1 != nil || err2 != nil {
			return false
		}
		// Optimal is also never better than the graph shortest path.
		return oc <= rc+1e-9 && oc >= float64(netstate.NewUncached(e.topo).Dist(sa, sb))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickLoadConservation: after arbitrary install/uninstall sequences the
// total switch load equals the sum over installed policies of rate x
// switch-count.
func TestQuickLoadConservation(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, err := topology.NewFatTree(4, topology.LinkParams{})
		if err != nil {
			return false
		}
		ctl := New(topo)
		srv := topo.Servers()
		locMap := make(map[cluster.ContainerID]topology.NodeID)
		loc := flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID {
			if s, ok := locMap[c]; ok {
				return s
			}
			return topology.None
		})
		flows := make(map[flow.ID]*flow.Flow)
		for i := 0; i < 6; i++ {
			a := cluster.ContainerID(2 * i)
			b := cluster.ContainerID(2*i + 1)
			locMap[a] = srv[rng.Intn(len(srv))]
			locMap[b] = srv[rng.Intn(len(srv))]
			if locMap[a] == locMap[b] {
				continue
			}
			flows[flow.ID(i)] = &flow.Flow{ID: flow.ID(i), Src: a, Dst: b, SizeGB: 1, Rate: 0.1 + rng.Float64()}
		}
		for op := 0; op < int(ops%40); op++ {
			for id, fl := range flows {
				if rng.Intn(2) == 0 {
					p, err := ctl.RandomPolicy(fl, loc, rng)
					if err == nil {
						_ = ctl.Install(fl, p)
					}
				} else {
					ctl.Uninstall(id)
				}
			}
		}
		// Conservation check.
		want := make(map[topology.NodeID]float64)
		for id, p := range ctl.Policies() {
			for _, w := range p.List {
				want[w] += flows[id].Rate
			}
		}
		for _, w := range topo.Switches() {
			if math.Abs(ctl.Load(w)-want[w]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSetSwitchCapacityErrors(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	if err := e.topo.SetSwitchCapacity(e.topo.Servers()[0], 5); err == nil {
		t.Error("server capacity change accepted")
	}
	if err := e.topo.SetSwitchCapacity(e.topo.Switches()[0], -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := e.topo.SetLinkBandwidth(e.topo.Servers()[0], e.topo.Servers()[1], 1); err == nil {
		t.Error("missing link accepted")
	}
	l := e.topo.Links()[0]
	if err := e.topo.SetLinkBandwidth(l.A, l.B, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := e.topo.SetLinkBandwidth(l.A, l.B, 0.5); err != nil {
		t.Errorf("valid bandwidth change rejected: %v", err)
	}
	if got, _ := e.topo.Link(l.A, l.B); got.Bandwidth != 0.5 {
		t.Errorf("bandwidth = %v after change", got.Bandwidth)
	}
}

func BenchmarkOptimizePolicy(b *testing.B) {
	topo, err := topology.NewFatTree(8, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 48})
	if err != nil {
		b.Fatal(err)
	}
	ctl := New(topo)
	srv := topo.Servers()
	loc := flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID {
		if c == 0 {
			return srv[0]
		}
		return srv[len(srv)-1]
	})
	f := &flow.Flow{ID: 0, Src: 0, Dst: 1, SizeGB: 1, Rate: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.OptimizePolicy(f, loc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlg1ColdWave10k is one cold Algorithm-1 wave at 10,000 servers:
// a fresh controller, and so a fresh oracle, per iteration on the rack tree
// of NewTreeWithRacks(3, 10, 100), then OptimizePolicy over the 4,608 flows
// of a 96×48 job whose 144 containers sit on servers drawn once from a
// fixed seed. Every route is solved cold, so a closed form that starts
// allocating more or falling back to the DP shows in allocs/op and ns/op.
func BenchmarkAlg1ColdWave10k(b *testing.B) {
	topo, err := topology.NewTreeWithRacks(3, 10, 100, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	const maps, reduces = 96, 48
	rng := rand.New(rand.NewSource(1))
	srv := topo.Servers()
	where := make([]topology.NodeID, maps+reduces)
	for i := range where {
		where[i] = srv[rng.Intn(len(srv))]
	}
	loc := flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID { return where[c] })
	flows := make([]*flow.Flow, 0, maps*reduces)
	for m := 0; m < maps; m++ {
		for r := 0; r < reduces; r++ {
			flows = append(flows, &flow.Flow{
				ID: flow.ID(len(flows)), Src: cluster.ContainerID(m), Dst: cluster.ContainerID(maps + r),
				SizeGB: 0.5, Rate: 0.5,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl := New(topo)
		for _, f := range flows {
			if _, err := ctl.OptimizePolicy(f, loc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
