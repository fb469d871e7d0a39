package topology_test

import (
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// The path answers about a topology come from the netstate oracle, the one
// place that computes them; these tests ask it about hand-built and
// generated graphs.

func TestDistAndShortestPath(t *testing.T) {
	topo, ids := topology.BuildDiamond(t)
	o := netstate.New(topo)
	if got := o.Dist(ids["s0"], ids["s1"]); got != 2 {
		t.Errorf("Dist(s0,s1) = %d, want 2", got)
	}
	if got := o.Dist(ids["s0"], ids["s2"]); got != 5 {
		t.Errorf("Dist(s0,s2) = %d, want 5", got)
	}
	if got := o.Dist(ids["s0"], ids["s0"]); got != 0 {
		t.Errorf("Dist(s0,s0) = %d, want 0", got)
	}
	path := o.ShortestPath(ids["s0"], ids["s2"])
	if len(path) != 6 {
		t.Fatalf("ShortestPath(s0,s2) len = %d, want 6 (%v)", len(path), path)
	}
	if err := topo.ValidatePath(path); err != nil {
		t.Errorf("ValidatePath: %v", err)
	}
	if path[0] != ids["s0"] || path[len(path)-1] != ids["s2"] {
		t.Errorf("path endpoints wrong: %v", path)
	}
	if got := o.ShortestPath(ids["s1"], ids["s1"]); len(got) != 1 || got[0] != ids["s1"] {
		t.Errorf("ShortestPath to self = %v, want single node", got)
	}
}

func TestAccessSwitch(t *testing.T) {
	topo, ids := topology.BuildDiamond(t)
	o := netstate.New(topo)
	if got := o.AccessSwitch(ids["s0"]); got != ids["sw3"] {
		t.Errorf("AccessSwitch(s0) = %d, want sw3=%d", got, ids["sw3"])
	}
	if got := o.AccessSwitch(ids["s2"]); got != ids["sw4"] {
		t.Errorf("AccessSwitch(s2) = %d, want sw4=%d", got, ids["sw4"])
	}
	if got := o.AccessSwitch(ids["sw0"]); got != topology.None {
		t.Errorf("AccessSwitch(switch) = %d, want topology.None", got)
	}
	if got := o.AccessSwitch(topology.NodeID(-5)); got != topology.None {
		t.Errorf("AccessSwitch(invalid) = %d, want topology.None", got)
	}
}

func TestSwitchesOfType(t *testing.T) {
	topo, _ := topology.BuildDiamond(t)
	o := netstate.New(topo)
	if got := len(o.SwitchesOfType(topology.TypeAggregation)); got != 2 {
		t.Errorf("aggregation switches = %d, want 2", got)
	}
	if got := len(o.SwitchesOfType(topology.TypeAccess)); got != 2 {
		t.Errorf("access switches = %d, want 2", got)
	}
	if got := len(o.SwitchesOfType("nope")); got != 0 {
		t.Errorf("unknown type switches = %d, want 0", got)
	}
}

func TestPathLatencyCountsSwitches(t *testing.T) {
	topo, ids := topology.BuildDiamond(t)
	o := netstate.New(topo)
	// s0 -> sw3 -> sw1 -> sw0 -> sw4 -> s2 traverses 4 switches -> 4 T.
	path := o.ShortestPath(ids["s0"], ids["s2"])
	if got := o.PathLatency(path); got != 4 {
		t.Errorf("PathLatency = %v, want 4", got)
	}
	// The case-study convention: S1<->S2 under the same access switch is 1 T... but
	// between racks (3 switches) it is 3 T.
	p2 := o.ShortestPath(ids["s0"], ids["s1"])
	if got := o.PathLatency(p2); got != 1 {
		t.Errorf("same-rack PathLatency = %v, want 1", got)
	}
}

func TestNewCaseStudyTree(t *testing.T) {
	topo, servers, err := topology.NewCaseStudyTree(topology.LinkParams{})
	if err != nil {
		t.Fatalf("NewCaseStudyTree: %v", err)
	}
	if got := topo.NumServers(); got != 4 {
		t.Errorf("servers = %d, want 4", got)
	}
	o := netstate.New(topo)
	// §2.3: delay S1 -> S2 (same access switch) is 1 T; S1 -> S4 (via root) is 3 T.
	p12 := o.ShortestPath(servers[0], servers[1])
	if got := o.PathLatency(p12); got != 1 {
		t.Errorf("S1-S2 latency = %v T, want 1", got)
	}
	p14 := o.ShortestPath(servers[0], servers[3])
	if got := o.PathLatency(p14); got != 3 {
		t.Errorf("S1-S4 latency = %v T, want 3 (case study)", got)
	}
}
