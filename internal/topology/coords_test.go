package topology

import (
	"fmt"
	"testing"
)

// structuralCases enumerates the generator configurations the parity sweep
// covers: all four families at several sizes, including the degenerate edges
// (depth-1 trees, k=2 fat-trees, single-rack VL2, k=0 BCube).
func structuralCases(t *testing.T) map[string]*Topology {
	t.Helper()
	p := DefaultLinkParams()
	out := make(map[string]*Topology)
	add := func(name string, topo *Topology, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = topo
	}
	for _, d := range []int{1, 2, 3} {
		for _, f := range []int{1, 2, 3} {
			topo, err := NewTree(d, f, p)
			add(fmt.Sprintf("tree_d%d_f%d", d, f), topo, err)
		}
	}
	deep, err := NewTree(4, 2, p)
	add("tree_d4_f2", deep, err)
	rack, err := NewTreeWithRacks(3, 2, 5, p)
	add("tree_rack_d3_f2_s5", rack, err)
	rack2, err := NewTreeWithRacks(2, 3, 1, p)
	add("tree_rack_d2_f3_s1", rack2, err)
	paper, err := NewPaperTree(p)
	add("papertree", paper, err)
	study, _, err := NewCaseStudyTree(p)
	add("casestudy", study, err)
	for _, k := range []int{2, 4, 6} {
		topo, err := NewFatTree(k, p)
		add(fmt.Sprintf("fattree_k%d", k), topo, err)
	}
	for _, c := range [][4]int{{2, 1, 1, 1}, {2, 2, 2, 3}, {4, 2, 3, 2}, {5, 3, 2, 4}} {
		topo, err := NewVL2(c[0], c[1], c[2], c[3], p)
		add(fmt.Sprintf("vl2_%d_%d_%d_%d", c[0], c[1], c[2], c[3]), topo, err)
	}
	for _, c := range [][2]int{{2, 0}, {2, 2}, {3, 1}, {4, 1}, {2, 3}} {
		topo, err := NewBCube(c[0], c[1], p)
		add(fmt.Sprintf("bcube_n%d_k%d", c[0], c[1]), topo, err)
	}
	return out
}

func sortedCaseNames(cases map[string]*Topology) []string {
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ { // insertion sort: deterministic order
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// TestStructuralDistParity checks StructuralDist == BFS Dist for EVERY node
// pair of every structural case.
func TestStructuralDistParity(t *testing.T) {
	cases := structuralCases(t)
	for _, name := range sortedCaseNames(cases) {
		topo := cases[name]
		t.Run(name, func(t *testing.T) {
			if !topo.Structural() {
				t.Fatalf("generator did not mark topology structural")
			}
			n := topo.NumNodes()
			for a := 0; a < n; a++ {
				bfsRow := make([]int, n)
				for b := 0; b < n; b++ {
					bfsRow[b] = topo.Dist(NodeID(a), NodeID(b))
				}
				for b := 0; b < n; b++ {
					got, ok := topo.StructuralDist(NodeID(a), NodeID(b))
					if !ok {
						t.Fatalf("StructuralDist(%d,%d) refused on healthy graph", a, b)
					}
					if got != bfsRow[b] {
						t.Fatalf("StructuralDist(%d,%d)=%d, BFS=%d (a=%v b=%v)",
							a, b, got, bfsRow[b], topo.Node(NodeID(a)), topo.Node(NodeID(b)))
					}
				}
			}
		})
	}
}

// TestLowestCommonTierParity checks LowestCommonTier against the highest
// tier on the lowest-ID shortest path, for every server pair.
func TestLowestCommonTierParity(t *testing.T) {
	cases := structuralCases(t)
	for _, name := range sortedCaseNames(cases) {
		topo := cases[name]
		t.Run(name, func(t *testing.T) {
			for _, a := range topo.Servers() {
				for _, b := range topo.Servers() {
					got, ok := topo.LowestCommonTier(a, b)
					if !ok {
						t.Fatalf("LowestCommonTier(%d,%d) refused on healthy graph", a, b)
					}
					want := -1
					for _, id := range topo.ShortestPath(a, b) {
						if tier := topo.Node(id).Tier; tier > want {
							want = tier
						}
					}
					if got != want {
						t.Fatalf("LowestCommonTier(%d,%d)=%d, path max tier=%d", a, b, got, want)
					}
				}
			}
		})
	}
}

// TestStageTemplateParity checks StageTemplate against the interior types of
// the lowest-ID shortest path, and StageRoute against its interior switches,
// for every server pair. StageRoute refuses on BCube.
func TestStageTemplateParity(t *testing.T) {
	cases := structuralCases(t)
	for _, name := range sortedCaseNames(cases) {
		topo := cases[name]
		t.Run(name, func(t *testing.T) {
			for _, a := range topo.Servers() {
				for _, b := range topo.Servers() {
					got, ok := topo.StageTemplate(a, b)
					if !ok {
						t.Fatalf("StageTemplate(%d,%d) refused on healthy graph", a, b)
					}
					// Reference: switch types along the lowest-ID shortest
					// path (BCube paths hop through intermediate servers,
					// which carry no type — netstate's TypeTemplate skips
					// them the same way).
					var want []string
					for _, id := range topo.ShortestPath(a, b) {
						if topo.Node(id).IsSwitch() {
							want = append(want, topo.Node(id).Type)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("StageTemplate(%d,%d)=%v, path types=%v", a, b, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("StageTemplate(%d,%d)=%v, path types=%v", a, b, got, want)
						}
					}
					route, ok := topo.StageRoute(a, b)
					if topo.Family() == FamilyBCube {
						if ok {
							t.Fatalf("StageRoute(%d,%d) answered on BCube", a, b)
						}
						continue
					}
					var path []NodeID
					if a != b {
						path = topo.ShortestPath(a, b)
						path = path[1 : len(path)-1]
					}
					if !ok || fmt.Sprint(route) != fmt.Sprint(path) {
						t.Fatalf("StageRoute(%d,%d)=%v,%v, path switches=%v", a, b, route, ok, path)
					}
				}
			}
		})
	}
}

// TestStageTemplateShared pins the satellite contract of the per-class
// templates: on Tree, Fat-Tree and VL2, StageTemplate allocates nothing and
// hands every pair of one lowest common tier the same slice.
func TestStageTemplateShared(t *testing.T) {
	cases := structuralCases(t)
	for _, name := range sortedCaseNames(cases) {
		topo := cases[name]
		if topo.Family() == FamilyBCube {
			continue
		}
		t.Run(name, func(t *testing.T) {
			byTier := make(map[int][]string)
			for _, a := range topo.Servers() {
				for _, b := range topo.Servers() {
					tier, _ := topo.LowestCommonTier(a, b)
					got, _ := topo.StageTemplate(a, b)
					if a == b {
						continue
					}
					if first, seen := byTier[tier]; seen && &first[0] != &got[0] {
						t.Fatalf("StageTemplate(%d,%d): tier %d template not shared", a, b, tier)
					}
					byTier[tier] = got
				}
			}
			srv := topo.Servers()
			a, b := srv[0], srv[len(srv)-1]
			if n := testing.AllocsPerRun(100, func() { topo.StageTemplate(a, b) }); n != 0 {
				t.Fatalf("StageTemplate allocates %v times per call", n)
			}
		})
	}
}

// TestStructuralRefusals pins the fallback contract: irregular topologies
// and degraded graphs must refuse, and recovery must re-enable the oracle.
func TestStructuralRefusals(t *testing.T) {
	b := NewBuilder("custom")
	sw := b.AddSwitch("sw", TypeAccess, 0, 10)
	s1 := b.AddServer("s1")
	s2 := b.AddServer("s2")
	b.Connect(sw, s1, 1, 0)
	b.Connect(sw, s2, 1, 0)
	custom, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if custom.Structural() {
		t.Fatal("hand-built topology claims to be structural")
	}
	if _, ok := custom.StructuralDist(s1, s2); ok {
		t.Fatal("StructuralDist answered on an irregular topology")
	}

	topo, err := NewTree(3, 2, DefaultLinkParams())
	if err != nil {
		t.Fatal(err)
	}
	srv := topo.Servers()
	if _, ok := topo.StructuralDist(srv[0], srv[1]); !ok {
		t.Fatal("StructuralDist refused on healthy tree")
	}
	if !topo.ServersSingleHomed() {
		t.Fatal("tree servers should be single-homed")
	}
	if err := topo.SetNodeAlive(srv[2], false); err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.StructuralDist(srv[0], srv[1]); ok {
		t.Fatal("StructuralDist answered on a degraded graph")
	}
	if _, ok := topo.LowestCommonTier(srv[0], srv[1]); ok {
		t.Fatal("LowestCommonTier answered on a degraded graph")
	}
	if _, ok := topo.StageTemplate(srv[0], srv[1]); ok {
		t.Fatal("StageTemplate answered on a degraded graph")
	}
	if _, ok := topo.StageRoute(srv[0], srv[1]); ok {
		t.Fatal("StageRoute answered on a degraded graph")
	}
	if err := topo.SetNodeAlive(srv[2], true); err != nil {
		t.Fatal(err)
	}
	if d, ok := topo.StructuralDist(srv[0], srv[1]); !ok || d != 2 {
		t.Fatalf("StructuralDist after recovery = %d, %v; want 2, true", d, ok)
	}

	// BCube servers are multi-homed; the rack identity must not be claimed.
	bc, err := NewBCube(2, 1, DefaultLinkParams())
	if err != nil {
		t.Fatal(err)
	}
	if bc.ServersSingleHomed() {
		t.Fatal("BCube servers claim to be single-homed")
	}
}
