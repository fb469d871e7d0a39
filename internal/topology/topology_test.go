package topology

import (
	"math"
	"testing"
	"testing/quick"
)

// buildDiamond returns a small multipath topology:
//
//	   sw0 (core)
//	  /    \
//	sw1    sw2   (aggregation, parallel)
//	  \    /
//	   sw3 (access A)      sw4 (access B, under sw0 directly)
//	  /   \                   \
//	s0     s1                  s2
func buildDiamond(t *testing.T) (*Topology, map[string]NodeID) {
	t.Helper()
	b := NewBuilder("diamond")
	ids := map[string]NodeID{}
	ids["sw0"] = b.AddSwitch("sw0", TypeCore, 2, 10)
	ids["sw1"] = b.AddSwitch("sw1", TypeAggregation, 1, 10)
	ids["sw2"] = b.AddSwitch("sw2", TypeAggregation, 1, 10)
	ids["sw3"] = b.AddSwitch("sw3", TypeAccess, 0, 10)
	ids["sw4"] = b.AddSwitch("sw4", TypeAccess, 0, 10)
	ids["s0"] = b.AddServer("s0")
	ids["s1"] = b.AddServer("s1")
	ids["s2"] = b.AddServer("s2")
	b.Connect(ids["sw0"], ids["sw1"], 1, 0)
	b.Connect(ids["sw0"], ids["sw2"], 1, 0)
	b.Connect(ids["sw1"], ids["sw3"], 1, 0)
	b.Connect(ids["sw2"], ids["sw3"], 1, 0)
	b.Connect(ids["sw0"], ids["sw4"], 1, 0)
	b.Connect(ids["sw3"], ids["s0"], 1, 0)
	b.Connect(ids["sw3"], ids["s1"], 1, 0)
	b.Connect(ids["sw4"], ids["s2"], 1, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo, ids
}

func TestBuilderCounts(t *testing.T) {
	topo, _ := buildDiamond(t)
	if got, want := topo.NumNodes(), 8; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	if got, want := topo.NumServers(), 3; got != want {
		t.Errorf("NumServers = %d, want %d", got, want)
	}
	if got, want := topo.NumSwitches(), 5; got != want {
		t.Errorf("NumSwitches = %d, want %d", got, want)
	}
	if got, want := topo.NumLinks(), 8; got != want {
		t.Errorf("NumLinks = %d, want %d", got, want)
	}
	if !topo.Connected() {
		t.Error("Connected = false, want true")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("self link", func(t *testing.T) {
		b := NewBuilder("bad")
		s := b.AddServer("s0")
		b.Connect(s, s, 1, 0)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted a self-link")
		}
	})
	t.Run("duplicate link", func(t *testing.T) {
		b := NewBuilder("bad")
		s := b.AddServer("s0")
		w := b.AddSwitch("w0", TypeAccess, 0, 1)
		b.Connect(s, w, 1, 0)
		b.Connect(w, s, 1, 0)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted a duplicate link")
		}
	})
	t.Run("zero bandwidth", func(t *testing.T) {
		b := NewBuilder("bad")
		s := b.AddServer("s0")
		w := b.AddSwitch("w0", TypeAccess, 0, 1)
		b.Connect(s, w, 0, 0)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted zero bandwidth")
		}
	})
	t.Run("out of range endpoint", func(t *testing.T) {
		b := NewBuilder("bad")
		s := b.AddServer("s0")
		b.Connect(s, NodeID(99), 1, 0)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted out-of-range endpoint")
		}
	})
	t.Run("no servers", func(t *testing.T) {
		b := NewBuilder("bad")
		b.AddSwitch("w0", TypeAccess, 0, 1)
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted a server-less topology")
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		b := NewBuilder("bad")
		b.AddServer("s0")
		b.AddServer("s1")
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted a disconnected topology")
		}
	})
}

func TestDistAndShortestPath(t *testing.T) {
	topo, ids := buildDiamond(t)
	if got := topo.Dist(ids["s0"], ids["s1"]); got != 2 {
		t.Errorf("Dist(s0,s1) = %d, want 2", got)
	}
	if got := topo.Dist(ids["s0"], ids["s2"]); got != 5 {
		t.Errorf("Dist(s0,s2) = %d, want 5", got)
	}
	if got := topo.Dist(ids["s0"], ids["s0"]); got != 0 {
		t.Errorf("Dist(s0,s0) = %d, want 0", got)
	}
	path := topo.ShortestPath(ids["s0"], ids["s2"])
	if len(path) != 6 {
		t.Fatalf("ShortestPath(s0,s2) len = %d, want 6 (%v)", len(path), path)
	}
	if err := topo.ValidatePath(path); err != nil {
		t.Errorf("ValidatePath: %v", err)
	}
	if path[0] != ids["s0"] || path[len(path)-1] != ids["s2"] {
		t.Errorf("path endpoints wrong: %v", path)
	}
	if got := topo.ShortestPath(ids["s1"], ids["s1"]); len(got) != 1 || got[0] != ids["s1"] {
		t.Errorf("ShortestPath to self = %v, want single node", got)
	}
}

func TestShortestPathDAGStages(t *testing.T) {
	topo, ids := buildDiamond(t)
	dag := topo.ShortestPathDAG(ids["s0"], ids["s2"])
	if dag == nil {
		t.Fatal("ShortestPathDAG returned nil")
	}
	if got := dag.Hops(); got != 5 {
		t.Fatalf("Hops = %d, want 5", got)
	}
	// Stage 2 (after s0, sw3) must hold both parallel aggregation switches.
	stage2 := dag.Stages[2]
	if len(stage2) != 2 {
		t.Fatalf("stage 2 = %v, want the two aggregation switches", stage2)
	}
	want := map[NodeID]bool{ids["sw1"]: true, ids["sw2"]: true}
	for _, n := range stage2 {
		if !want[n] {
			t.Errorf("unexpected node %d in stage 2", n)
		}
	}
	// Endpoints are singletons.
	if len(dag.Stages[0]) != 1 || dag.Stages[0][0] != ids["s0"] {
		t.Errorf("stage 0 = %v, want [s0]", dag.Stages[0])
	}
	last := dag.Stages[len(dag.Stages)-1]
	if len(last) != 1 || last[0] != ids["s2"] {
		t.Errorf("last stage = %v, want [s2]", last)
	}
	// Switch stages exclude endpoints.
	if got := len(dag.SwitchStages()); got != 4 {
		t.Errorf("SwitchStages count = %d, want 4", got)
	}
}

func TestPathDAGEveryStageChoiceIsAWalk(t *testing.T) {
	topo, ids := buildDiamond(t)
	dag := topo.ShortestPathDAG(ids["s0"], ids["s2"])
	// Every combination of one node per stage with adjacent consecutive picks
	// must validate; here the only free stage is stage 2.
	for _, mid := range dag.Stages[2] {
		path := []NodeID{dag.Stages[0][0], dag.Stages[1][0], mid, dag.Stages[3][0], dag.Stages[4][0], dag.Stages[5][0]}
		if err := topo.ValidatePath(path); err != nil {
			t.Errorf("stage walk through %d invalid: %v", mid, err)
		}
	}
}

func TestAccessSwitch(t *testing.T) {
	topo, ids := buildDiamond(t)
	if got := topo.AccessSwitch(ids["s0"]); got != ids["sw3"] {
		t.Errorf("AccessSwitch(s0) = %d, want sw3=%d", got, ids["sw3"])
	}
	if got := topo.AccessSwitch(ids["s2"]); got != ids["sw4"] {
		t.Errorf("AccessSwitch(s2) = %d, want sw4=%d", got, ids["sw4"])
	}
	if got := topo.AccessSwitch(ids["sw0"]); got != None {
		t.Errorf("AccessSwitch(switch) = %d, want None", got)
	}
	if got := topo.AccessSwitch(NodeID(-5)); got != None {
		t.Errorf("AccessSwitch(invalid) = %d, want None", got)
	}
}

func TestSwitchesOfType(t *testing.T) {
	topo, _ := buildDiamond(t)
	if got := len(topo.SwitchesOfType(TypeAggregation)); got != 2 {
		t.Errorf("aggregation switches = %d, want 2", got)
	}
	if got := len(topo.SwitchesOfType(TypeAccess)); got != 2 {
		t.Errorf("access switches = %d, want 2", got)
	}
	if got := len(topo.SwitchesOfType("nope")); got != 0 {
		t.Errorf("unknown type switches = %d, want 0", got)
	}
}

func TestPathLatencyCountsSwitches(t *testing.T) {
	topo, ids := buildDiamond(t)
	// s0 -> sw3 -> sw1 -> sw0 -> sw4 -> s2 traverses 4 switches -> 4 T.
	path := topo.ShortestPath(ids["s0"], ids["s2"])
	if got := topo.PathLatency(path); got != 4 {
		t.Errorf("PathLatency = %v, want 4", got)
	}
	// The case-study convention: S1<->S2 under the same access switch is 1 T... but
	// between racks (3 switches) it is 3 T.
	p2 := topo.ShortestPath(ids["s0"], ids["s1"])
	if got := topo.PathLatency(p2); got != 1 {
		t.Errorf("same-rack PathLatency = %v, want 1", got)
	}
}

func TestValidatePathErrors(t *testing.T) {
	topo, ids := buildDiamond(t)
	cases := []struct {
		name string
		path []NodeID
	}{
		{"empty", nil},
		{"out of range", []NodeID{NodeID(100)}},
		{"repeat", []NodeID{ids["s0"], ids["s0"]}},
		{"not adjacent", []NodeID{ids["s0"], ids["s2"]}},
	}
	for _, tc := range cases {
		if err := topo.ValidatePath(tc.path); err == nil {
			t.Errorf("%s: ValidatePath accepted %v", tc.name, tc.path)
		}
	}
}

func TestLinkLookup(t *testing.T) {
	topo, ids := buildDiamond(t)
	l, ok := topo.Link(ids["sw0"], ids["sw1"])
	if !ok {
		t.Fatal("Link(sw0,sw1) not found")
	}
	if (l.A != ids["sw0"] || l.B != ids["sw1"]) && (l.A != ids["sw1"] || l.B != ids["sw0"]) {
		t.Errorf("Link(sw0,sw1) endpoints %d-%d", l.A, l.B)
	}
	if _, ok := topo.Link(ids["s0"], ids["s1"]); ok {
		t.Error("Link(s0,s1) should not exist")
	}
	if !topo.Adjacent(ids["sw1"], ids["sw0"]) {
		t.Error("Adjacent(sw1,sw0) = false, want true (order independent)")
	}
}

func TestKindString(t *testing.T) {
	if KindServer.String() != "server" || KindSwitch.String() != "switch" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind.String empty")
	}
}

func TestNodePredicates(t *testing.T) {
	topo, ids := buildDiamond(t)
	if !topo.Node(ids["s0"]).IsServer() || topo.Node(ids["s0"]).IsSwitch() {
		t.Error("server predicates wrong")
	}
	if !topo.Node(ids["sw0"]).IsSwitch() || topo.Node(ids["sw0"]).IsServer() {
		t.Error("switch predicates wrong")
	}
	if topo.Valid(NodeID(-1)) || topo.Valid(NodeID(topo.NumNodes())) {
		t.Error("Valid accepted out-of-range ID")
	}
}

// TestQuickDistSymmetric: BFS distance is symmetric on random trees.
func TestQuickDistSymmetric(t *testing.T) {
	f := func(depthSeed, fanoutSeed uint8) bool {
		depth := int(depthSeed%3) + 1
		fanout := int(fanoutSeed%3) + 2
		topo, err := NewTree(depth, fanout, LinkParams{})
		if err != nil {
			return false
		}
		srv := topo.Servers()
		a, b := srv[0], srv[len(srv)-1]
		return topo.Dist(a, b) == topo.Dist(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickTriangleInequality: dist obeys the triangle inequality over
// server triples in random trees.
func TestQuickTriangleInequality(t *testing.T) {
	topo, err := NewTree(3, 3, LinkParams{})
	if err != nil {
		t.Fatal(err)
	}
	srv := topo.Servers()
	f := func(i, j, k uint16) bool {
		a := srv[int(i)%len(srv)]
		b := srv[int(j)%len(srv)]
		c := srv[int(k)%len(srv)]
		return topo.Dist(a, c) <= topo.Dist(a, b)+topo.Dist(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickDAGConsistent: for random server pairs in a fat-tree, every stage
// of the shortest-path DAG is non-empty and consecutive stages connect.
func TestQuickDAGConsistent(t *testing.T) {
	topo, err := NewFatTree(4, LinkParams{})
	if err != nil {
		t.Fatal(err)
	}
	srv := topo.Servers()
	f := func(i, j uint16) bool {
		a := srv[int(i)%len(srv)]
		b := srv[int(j)%len(srv)]
		if a == b {
			return true
		}
		dag := topo.ShortestPathDAG(a, b)
		if dag == nil || dag.Hops() != topo.Dist(a, b) {
			return false
		}
		for si, stage := range dag.Stages {
			if len(stage) == 0 {
				return false
			}
			if si == 0 {
				continue
			}
			// Every node in this stage must have at least one neighbor in the
			// previous stage.
			for _, n := range stage {
				ok := false
				for _, p := range dag.Stages[si-1] {
					if topo.Adjacent(p, n) {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInfiniteCapacitySwitch(t *testing.T) {
	b := NewBuilder("inf")
	w := b.AddSwitch("w", TypeAccess, 0, InfiniteCapacity)
	s := b.AddServer("s")
	b.Connect(w, s, 1, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(topo.Node(w).Capacity, 1) {
		t.Error("capacity not infinite")
	}
}

func BenchmarkShortestPathDAGFatTree8(b *testing.B) {
	topo, err := NewFatTree(8, LinkParams{})
	if err != nil {
		b.Fatal(err)
	}
	srv := topo.Servers()
	// Warm the BFS cache once so the benchmark measures DAG assembly.
	topo.Dist(srv[0], srv[len(srv)-1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dag := topo.ShortestPathDAG(srv[0], srv[len(srv)-1]); dag == nil {
			b.Fatal("nil DAG")
		}
	}
}
