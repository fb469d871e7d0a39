package topology

import (
	"fmt"
	"testing"
)

func TestNewTreeCounts(t *testing.T) {
	cases := []struct {
		depth, fanout                  int
		wantServers, wantSwitches      int
		wantServerToServerMaxHops      int
		wantServerToServerSameRackHops int
	}{
		{1, 4, 4, 1, 2, 2},
		{2, 2, 4, 3, 4, 2},
		{3, 2, 8, 7, 6, 2},
		{3, 4, 64, 21, 6, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("d%df%d", tc.depth, tc.fanout), func(t *testing.T) {
			topo, err := NewTree(tc.depth, tc.fanout, LinkParams{})
			if err != nil {
				t.Fatalf("NewTree: %v", err)
			}
			if got := topo.NumServers(); got != tc.wantServers {
				t.Errorf("servers = %d, want %d", got, tc.wantServers)
			}
			if got := topo.NumSwitches(); got != tc.wantSwitches {
				t.Errorf("switches = %d, want %d", got, tc.wantSwitches)
			}
			srv := topo.Servers()
			first, last := srv[0], srv[len(srv)-1]
			if tc.wantServers > 1 {
				if got := topo.Dist(first, last); got != tc.wantServerToServerMaxHops {
					t.Errorf("max server dist = %d, want %d", got, tc.wantServerToServerMaxHops)
				}
				if got := topo.Dist(srv[0], srv[1]); got != tc.wantServerToServerSameRackHops {
					t.Errorf("same rack dist = %d, want %d", got, tc.wantServerToServerSameRackHops)
				}
			}
		})
	}
}

func TestNewTreeErrors(t *testing.T) {
	if _, err := NewTree(0, 2, LinkParams{}); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := NewTree(2, 0, LinkParams{}); err == nil {
		t.Error("fanout 0 accepted")
	}
}

func TestNewPaperTree(t *testing.T) {
	topo, err := NewPaperTree(LinkParams{})
	if err != nil {
		t.Fatalf("NewPaperTree: %v", err)
	}
	if got := topo.NumServers(); got != 64 {
		t.Errorf("servers = %d, want 64", got)
	}
	if got := topo.NumSwitches(); got != 10 {
		t.Errorf("switches = %d, want 10 (matches the paper's 64 hosts / 10 switches)", got)
	}
	if got := len(topo.SwitchesOfType(TypeAccess)); got != 8 {
		t.Errorf("access switches = %d, want 8", got)
	}
	if got := len(topo.SwitchesOfType(TypeCore)); got != 1 {
		t.Errorf("core switches = %d, want 1", got)
	}
	// Cross-rack path: server - access - agg - access - server = 4 hops;
	// far servers are still only 4 because there is a single aggregation.
	srv := topo.Servers()
	if got := topo.Dist(srv[0], srv[63]); got != 4 {
		t.Errorf("cross-rack dist = %d, want 4", got)
	}
}

func TestNewCaseStudyTree(t *testing.T) {
	topo, servers, err := NewCaseStudyTree(LinkParams{})
	if err != nil {
		t.Fatalf("NewCaseStudyTree: %v", err)
	}
	if got := topo.NumServers(); got != 4 {
		t.Errorf("servers = %d, want 4", got)
	}
	// §2.3: delay S1 -> S2 (same access switch) is 1 T; S1 -> S4 (via root) is 3 T.
	p12 := topo.ShortestPath(servers[0], servers[1])
	if got := topo.PathLatency(p12); got != 1 {
		t.Errorf("S1-S2 latency = %v T, want 1", got)
	}
	p14 := topo.ShortestPath(servers[0], servers[3])
	if got := topo.PathLatency(p14); got != 3 {
		t.Errorf("S1-S4 latency = %v T, want 3 (case study)", got)
	}
}

func TestNewFatTree(t *testing.T) {
	topo, err := NewFatTree(4, LinkParams{})
	if err != nil {
		t.Fatalf("NewFatTree: %v", err)
	}
	if got := topo.NumServers(); got != 16 {
		t.Errorf("servers = %d, want 16 (k^3/4)", got)
	}
	if got := topo.NumSwitches(); got != 20 {
		t.Errorf("switches = %d, want 20 (4 core + 8 agg + 8 edge)", got)
	}
	if got := len(topo.SwitchesOfType(TypeCore)); got != 4 {
		t.Errorf("core = %d, want 4", got)
	}
	// Multipath: two servers in different pods must have > 1 shortest path
	// alternative at the core stage.
	srv := topo.Servers()
	dag := topo.ShortestPathDAG(srv[0], srv[15])
	if dag == nil {
		t.Fatal("no DAG between far servers")
	}
	multi := false
	for _, stage := range dag.SwitchStages() {
		if len(stage) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Error("fat-tree inter-pod route has no alternative switches; want multipath")
	}
}

func TestNewFatTreeErrors(t *testing.T) {
	for _, k := range []int{0, 1, 3, -2} {
		if _, err := NewFatTree(k, LinkParams{}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestNewVL2(t *testing.T) {
	topo, err := NewVL2(4, 2, 2, 4, LinkParams{})
	if err != nil {
		t.Fatalf("NewVL2: %v", err)
	}
	if got := topo.NumServers(); got != 32 {
		t.Errorf("servers = %d, want 32 (4*2 ToR * 4)", got)
	}
	if got := len(topo.SwitchesOfType(TypeIntermediate)); got != 2 {
		t.Errorf("intermediate = %d, want 2", got)
	}
	if got := len(topo.SwitchesOfType(TypeAggregation)); got != 4 {
		t.Errorf("aggregation = %d, want 4", got)
	}
	if got := len(topo.SwitchesOfType(TypeAccess)); got != 8 {
		t.Errorf("ToR = %d, want 8", got)
	}
	// Each ToR is dual-homed: degree = 2 agg + servers.
	for _, tor := range topo.SwitchesOfType(TypeAccess) {
		if got := len(topo.Neighbors(tor)); got != 2+4 {
			t.Errorf("ToR degree = %d, want 6", got)
		}
	}
}

func TestNewVL2Errors(t *testing.T) {
	if _, err := NewVL2(1, 2, 2, 4, LinkParams{}); err == nil {
		t.Error("dA=1 accepted")
	}
	if _, err := NewVL2(4, 0, 2, 4, LinkParams{}); err == nil {
		t.Error("dI=0 accepted")
	}
	if _, err := NewVL2(4, 2, 0, 4, LinkParams{}); err == nil {
		t.Error("tPerAgg=0 accepted")
	}
	if _, err := NewVL2(4, 2, 2, 0, LinkParams{}); err == nil {
		t.Error("serversPerToR=0 accepted")
	}
}

func TestNewBCube(t *testing.T) {
	topo, err := NewBCube(4, 1, LinkParams{})
	if err != nil {
		t.Fatalf("NewBCube: %v", err)
	}
	if got := topo.NumServers(); got != 16 {
		t.Errorf("servers = %d, want 16 (n^(k+1))", got)
	}
	if got := topo.NumSwitches(); got != 8 {
		t.Errorf("switches = %d, want 8 (2 levels * 4)", got)
	}
	// Every server attaches to exactly k+1 = 2 switches.
	for _, s := range topo.Servers() {
		if got := len(topo.Neighbors(s)); got != 2 {
			t.Errorf("server %d degree = %d, want 2", s, got)
		}
	}
	// Every switch connects exactly n = 4 servers.
	for _, w := range topo.Switches() {
		if got := len(topo.Neighbors(w)); got != 4 {
			t.Errorf("switch %d degree = %d, want 4", w, got)
		}
	}
	// Servers sharing a level-0 switch are 2 hops apart; others 4 max via
	// one relay server.
	srv := topo.Servers()
	if got := topo.Dist(srv[0], srv[1]); got != 2 {
		t.Errorf("same level-0 group dist = %d, want 2", got)
	}
	if got := topo.Dist(srv[0], srv[5]); got != 4 {
		t.Errorf("diagonal dist = %d, want 4 (via relay)", got)
	}
}

func TestNewBCubeErrors(t *testing.T) {
	if _, err := NewBCube(1, 1, LinkParams{}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewBCube(2, -1, LinkParams{}); err == nil {
		t.Error("k=-1 accepted")
	}
	if _, err := NewBCube(64, 4, LinkParams{}); err == nil {
		t.Error("huge BCube accepted")
	}
}

func TestNewArchitecture(t *testing.T) {
	for _, name := range ArchitectureNames() {
		t.Run(name, func(t *testing.T) {
			topo, err := NewArchitecture(name, 16, LinkParams{})
			if err != nil {
				t.Fatalf("NewArchitecture(%q): %v", name, err)
			}
			if topo.NumServers() < 16 {
				t.Errorf("servers = %d, want >= 16", topo.NumServers())
			}
			if !topo.Connected() {
				t.Error("not connected")
			}
		})
	}
	if _, err := NewArchitecture("hypercube", 16, LinkParams{}); err == nil {
		t.Error("unknown architecture accepted")
	}
	if _, err := NewArchitecture("tree", 0, LinkParams{}); err == nil {
		t.Error("minServers=0 accepted")
	}
}

func TestDefaultLinkParams(t *testing.T) {
	p := DefaultLinkParams()
	if p.Bandwidth <= 0 || p.SwitchCapacity <= 0 {
		t.Errorf("defaults not positive: %+v", p)
	}
	// orDefault fills zero values.
	var zero LinkParams
	filled := zero.orDefault()
	if filled.Bandwidth != p.Bandwidth || filled.SwitchCapacity != p.SwitchCapacity {
		t.Errorf("orDefault = %+v, want %+v", filled, p)
	}
	// Negative latency is clamped.
	neg := LinkParams{Bandwidth: 1, Latency: -3, SwitchCapacity: 1}.orDefault()
	if neg.Latency != 0 {
		t.Errorf("negative latency not clamped: %v", neg.Latency)
	}
}

func TestArchitecturesAreConnectedAndTyped(t *testing.T) {
	builders := map[string]func() (*Topology, error){
		"tree-3-8": func() (*Topology, error) { return NewTree(3, 8, LinkParams{}) },
		"fattree6": func() (*Topology, error) { return NewFatTree(6, LinkParams{}) },
		"vl2":      func() (*Topology, error) { return NewVL2(6, 3, 2, 8, LinkParams{}) },
		"bcube":    func() (*Topology, error) { return NewBCube(3, 2, LinkParams{}) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			topo, err := build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if !topo.Connected() {
				t.Fatal("not connected")
			}
			for _, w := range topo.Switches() {
				if topo.Node(w).Type == "" {
					t.Errorf("switch %d has empty type", w)
				}
				if topo.Node(w).Capacity <= 0 {
					t.Errorf("switch %d has non-positive capacity", w)
				}
			}
			for _, s := range topo.Servers() {
				if topo.AccessSwitch(s) == None {
					t.Errorf("server %d has no access switch", s)
				}
			}
		})
	}
}
