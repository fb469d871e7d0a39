package netstate_test

import (
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// TestRackDistsMatchBFS pins the O(racks) distance rows against fresh BFS
// on every single-homed family: each rack groups exactly the servers whose
// access switch it names, every entry of a memoizing oracle's row (switch
// table and single-homed lift) equals the uncached oracle's BFS distance to
// that switch, and a server's distance to another server is one more than
// its distance to that server's rack. With a switch crashed the rows must
// follow the live graph instead.
func TestRackDistsMatchBFS(t *testing.T) {
	lp := topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9}
	fabrics := map[string]func() (*topology.Topology, error){
		"tree":      func() (*topology.Topology, error) { return topology.NewTree(3, 3, lp) },
		"racktree":  func() (*topology.Topology, error) { return topology.NewTreeWithRacks(3, 3, 5, lp) },
		"papertree": func() (*topology.Topology, error) { return topology.NewPaperTree(lp) },
		"fattree":   func() (*topology.Topology, error) { return topology.NewFatTree(4, lp) },
		"vl2":       func() (*topology.Topology, error) { return topology.NewVL2(4, 2, 2, 3, lp) },
	}
	for _, name := range []string{"tree", "racktree", "papertree", "fattree", "vl2"} {
		t.Run(name, func(t *testing.T) {
			topo, err := fabrics[name]()
			if err != nil {
				t.Fatal(err)
			}
			o, ref := netstate.New(topo), netstate.NewUncached(topo)
			check := func(stage string) {
				t.Helper()
				rk := o.Racks()
				for _, s := range topo.Servers() {
					if a := rk.Switches[rk.Of[s]]; a != topo.Neighbors(s)[0] {
						t.Fatalf("%s: server %d in rack of switch %d, attached to %d", stage, s, a, topo.Neighbors(s)[0])
					}
					got := o.RackDists(nil, s)
					bfs := ref.DistRow(s)
					for r, a := range rk.Switches {
						if got[r] != bfs[a] {
							t.Fatalf("%s: RackDists(%d)[%d] = %d, BFS to switch %d = %d", stage, s, r, got[r], a, bfs[a])
						}
					}
					for _, x := range topo.Servers() {
						if x == s || bfs[x] < 0 {
							continue
						}
						if want := 1 + got[rk.Of[x]]; bfs[x] != want {
							t.Fatalf("%s: dist(%d,%d) = %d, 1 + rack distance = %d", stage, s, x, bfs[x], want)
						}
					}
				}
			}
			check("healthy")
			sw := topo.Switches()
			if err := topo.SetNodeAlive(sw[len(sw)/2], false); err != nil {
				t.Fatal(err)
			}
			check("one switch down")
		})
	}
}

// TestRacksNilWhenMultiHomed checks that BCube, whose servers attach to one
// switch per level, has no rack table.
func TestRacksNilWhenMultiHomed(t *testing.T) {
	topo, err := topology.NewBCube(3, 1, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if rk := netstate.New(topo).Racks(); rk != nil {
		t.Fatalf("BCube rack table: %d racks, want none", len(rk.Switches))
	}
}
