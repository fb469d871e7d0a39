package faults

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/topology"
)

// reactorEnv installs cross-pod flows via OptimizeBetween so the reactor
// has recorded endpoints to re-solve from.
func reactorEnv(t *testing.T) (*topology.Topology, *controller.Controller, []FlowEndpoints) {
	t.Helper()
	topo := testFatTree(t)
	ctl := controller.New(topo)
	srv := topo.Servers()
	var eps []FlowEndpoints
	pairs := [][2]int{{0, 15}, {1, 14}, {2, 13}}
	for i, pr := range pairs {
		f := &flow.Flow{ID: flow.ID(i), Src: 1, Dst: 2, SizeGB: 5, Rate: 5}
		p, err := ctl.OptimizeBetween(f, srv[pr[0]], srv[pr[1]])
		if err != nil {
			t.Fatalf("OptimizeBetween flow %d: %v", i, err)
		}
		if err := ctl.Install(f, p); err != nil {
			t.Fatalf("Install flow %d: %v", i, err)
		}
		eps = append(eps, FlowEndpoints{Flow: f, Src: srv[pr[0]], Dst: srv[pr[1]]})
	}
	return topo, ctl, eps
}

// midSwitchOf returns the first above-access switch in the flow's policy.
func midSwitchOf(t *testing.T, ctl *controller.Controller, topo *topology.Topology, id flow.ID) topology.NodeID {
	t.Helper()
	p := ctl.Policy(id)
	if p == nil {
		t.Fatalf("flow %d has no policy", id)
	}
	for _, w := range p.List {
		if topo.Node(w).Tier > 0 {
			return w
		}
	}
	t.Fatalf("flow %d policy %v has no above-access switch", id, p.List)
	return topology.None
}

func assertInvariants(t *testing.T, ctl *controller.Controller, topo *topology.Topology) {
	t.Helper()
	for id, p := range ctl.Policies() {
		for _, w := range p.List {
			if !topo.Alive(w) {
				t.Errorf("flow %d policy traverses dead switch %d", id, w)
			}
		}
	}
	if over := ctl.OverloadedSwitches(); len(over) != 0 {
		t.Errorf("switches still over capacity: %v", over)
	}
}

func TestChaosReactorReroutesOffDeadSwitch(t *testing.T) {
	topo, ctl, eps := reactorEnv(t)
	inj := NewInjector(topo, nil)

	dead := midSwitchOf(t, ctl, topo, 0)
	if _, err := inj.Apply(Event{Kind: SwitchCrash, Node: dead}); err != nil {
		t.Fatalf("crash: %v", err)
	}
	res, err := React(ctl, eps)
	if err != nil {
		t.Fatalf("React: %v", err)
	}
	if res.Rerouted == 0 {
		t.Error("no flow rerouted off the dead switch")
	}
	if len(res.Dropped) != 0 {
		t.Errorf("dropped flows %v on a fabric with live siblings", res.Dropped)
	}
	assertInvariants(t, ctl, topo)

	// Recovery plus a second pass is a no-op on a healthy fabric.
	if _, err := inj.Apply(Event{Kind: SwitchRecover, Node: dead}); err != nil {
		t.Fatal(err)
	}
	res, err = React(ctl, eps)
	if err != nil {
		t.Fatalf("React after recovery: %v", err)
	}
	if res.Rerouted != 0 || len(res.Dropped) != 0 {
		t.Errorf("healthy fabric pass touched flows: %+v", res)
	}
	assertInvariants(t, ctl, topo)
}

func TestChaosReactorShedsOverload(t *testing.T) {
	topo, ctl, eps := reactorEnv(t)
	inj := NewInjector(topo, nil)

	// Degrade a loaded switch below its carried rate: React must move the
	// victim to a sibling (or shed it) until nothing is over capacity.
	w := midSwitchOf(t, ctl, topo, 1)
	if _, err := inj.Apply(Event{Kind: SwitchDegrade, Node: w, Factor: 0.01}); err != nil {
		t.Fatalf("degrade: %v", err)
	}
	if len(ctl.OverloadedSwitches()) == 0 {
		t.Fatal("degrade did not overload the switch — test premise broken")
	}
	res, err := React(ctl, eps)
	if err != nil {
		t.Fatalf("React: %v", err)
	}
	if res.Rerouted+len(res.Dropped) == 0 {
		t.Error("overload cleared without touching any flow")
	}
	assertInvariants(t, ctl, topo)
}

func TestChaosReactorDropsUnroutableFlow(t *testing.T) {
	topo, ctl, eps := reactorEnv(t)
	inj := NewInjector(topo, nil)

	// Kill the access switch of flow 2's source server: no route can exist,
	// so the reactor must shed the flow rather than error out.
	acc := ctl.Oracle().AccessSwitch(eps[2].Src)
	if acc == topology.None {
		t.Fatal("source server has no access switch")
	}
	if _, err := inj.Apply(Event{Kind: SwitchCrash, Node: acc}); err != nil {
		t.Fatalf("crash: %v", err)
	}
	res, err := React(ctl, eps)
	if err != nil {
		t.Fatalf("React: %v", err)
	}
	found := false
	for _, id := range res.Dropped {
		if id == eps[2].Flow.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("flow %d should have been dropped, got %+v", eps[2].Flow.ID, res)
	}
	if ctl.Policy(eps[2].Flow.ID) != nil {
		t.Error("dropped flow still has an installed policy")
	}
	assertInvariants(t, ctl, topo)
}

// TestChaosReactorRefusesImmovableOverload: an overload pinned in place
// by an installed flow outside React's endpoint set cannot be shed, and
// React must report it instead of returning a clean result.
func TestChaosReactorRefusesImmovableOverload(t *testing.T) {
	topo := testFatTree(t)
	ctl := controller.New(topo)
	srv := topo.Servers()
	f := &flow.Flow{ID: 0, Src: 1, Dst: 2, SizeGB: 4, Rate: 4}
	p, err := ctl.OptimizeBetween(f, srv[0], srv[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Install(f, p); err != nil {
		t.Fatal(err)
	}
	// Degrade the flow's edge switch, which it cannot avoid; React is not
	// given the flow anyway.
	if err := topo.SetSwitchCapacity(p.List[0], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := React(ctl, nil); err == nil {
		t.Error("immovable overload not reported")
	}
}

// TestChaosReactorVictimRule pins the order in which React sheds an
// overload, which experiments.FailureRecovery relies on: of the flows
// through the first overloaded switch, the largest-rate one moves first,
// and at a rate tie the lowest flow ID. Four flows with rates 2, 3, 3 and
// 1 share one route, whose aggregation switch is degraded so that moving
// one rate-3 flow clears it: exactly flow 1 must move.
func TestChaosReactorVictimRule(t *testing.T) {
	topo := testFatTree(t)
	ctl := controller.New(topo)
	srv := topo.Servers()
	var eps []FlowEndpoints
	for i, rate := range []float64{2, 3, 3, 1} {
		f := &flow.Flow{ID: flow.ID(i), Src: 1, Dst: 2, SizeGB: rate, Rate: rate}
		p, err := ctl.OptimizeBetween(f, srv[0], srv[15])
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Install(f, p); err != nil {
			t.Fatal(err)
		}
		eps = append(eps, FlowEndpoints{Flow: f, Src: srv[0], Dst: srv[15]})
	}
	w := midSwitchOf(t, ctl, topo, 0)
	through := func(id flow.ID) bool {
		for _, sw := range ctl.Policy(id).List {
			if sw == w {
				return true
			}
		}
		return false
	}
	for _, ep := range eps {
		if !through(ep.Flow.ID) {
			t.Fatalf("flow %d does not cross switch %d — test premise broken", ep.Flow.ID, w)
		}
	}
	if err := topo.SetSwitchCapacity(w, 6.5); err != nil {
		t.Fatal(err)
	}
	res, err := React(ctl, eps)
	if err != nil {
		t.Fatalf("React: %v", err)
	}
	if res.Rerouted != 1 || len(res.Dropped) != 0 {
		t.Fatalf("React = %+v, want exactly one flow rerouted", res)
	}
	for _, ep := range eps {
		if err := ctl.Policy(ep.Flow.ID).Satisfied(topo); err != nil {
			t.Errorf("flow %d: %v", ep.Flow.ID, err)
		}
		if moved := !through(ep.Flow.ID); moved != (ep.Flow.ID == 1) {
			t.Errorf("flow %d (rate %v): moved off switch %d = %v, want only flow 1 moved",
				ep.Flow.ID, ep.Flow.Rate, w, moved)
		}
	}
	assertInvariants(t, ctl, topo)
}

// TestChaosInjectorReplayBitIdentical drives a generated timeline through
// two independent fabrics and demands bit-identical state at every step.
func TestChaosInjectorReplayBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		spec := Spec{Horizon: 100, Rate: 10, Severity: 0.7}
		run := func() [][]uint64 {
			topo := testFatTree(t)
			evs := GenerateTimeline(rand.New(rand.NewSource(seed)), topo, spec)
			inj := NewInjector(topo, nil)
			var trace [][]uint64
			for _, ev := range evs {
				if ev.Kind == ServerCrash || ev.Kind == ServerRecover {
					continue // network-only injector in this test
				}
				if _, err := inj.Apply(ev); err != nil {
					t.Fatalf("seed %d apply %v: %v", seed, ev, err)
				}
				var fp []uint64
				for _, w := range topo.Switches() {
					fp = append(fp, math.Float64bits(topo.Node(w).Capacity))
				}
				for _, l := range topo.Links() {
					fp = append(fp, math.Float64bits(l.Bandwidth))
				}
				trace = append(trace, fp)
			}
			return trace
		}
		if !reflect.DeepEqual(run(), run()) {
			t.Errorf("seed %d: replay diverged", seed)
		}
	}
}
