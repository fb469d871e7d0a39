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

// BuildDiamond exposes buildDiamond to the tests of package topology_test,
// which ask the netstate oracle about it.
var BuildDiamond = buildDiamond

// bfsRow is this package's test reference for hop counts from src: a plain
// BFS over live nodes, -1 for the unreachable. The production BFS lives in
// internal/netstate, which these tests cannot import.
func bfsRow(t *Topology, src NodeID) []int {
	d := make([]int, t.NumNodes())
	for i := range d {
		d[i] = -1
	}
	if !t.Alive(src) {
		return d
	}
	d[src] = 0
	queue := []NodeID{src}
	for i := 0; i < len(queue); i++ {
		for _, v := range t.Neighbors(queue[i]) {
			if d[v] < 0 && t.Alive(v) {
				d[v] = d[queue[i]] + 1
				queue = append(queue, v)
			}
		}
	}
	return d
}

func bfsDist(t *Topology, a, b NodeID) int { return bfsRow(t, a)[b] }

// lowestIDPath is the lowest-ID shortest path from a to b, inclusive: each
// step goes to the lowest-ID neighbour one hop closer to b.
func lowestIDPath(t *Topology, a, b NodeID) []NodeID {
	d := bfsRow(t, b)
	if d[a] < 0 {
		return nil
	}
	path := []NodeID{a}
	for cur := a; cur != b; path = append(path, cur) {
		for _, nb := range t.Neighbors(cur) {
			if d[nb] == d[cur]-1 {
				cur = nb
				break
			}
		}
	}
	return path
}

// numOfType counts the switches of one type.
func numOfType(t *Topology, typ string) int {
	n := 0
	for _, w := range t.Switches() {
		if t.Node(w).Type == typ {
			n++
		}
	}
	return n
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
		return bfsDist(topo, a, b) == bfsDist(topo, b, a)
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
		return bfsDist(topo, a, c) <= bfsDist(topo, a, b)+bfsDist(topo, b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
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
