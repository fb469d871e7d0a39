package netstate_test

import (
	"math"
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// buildFatTree builds a k=4 fat-tree: the smallest multipath fabric in the
// architecture set, so killing one aggregation or core switch leaves every
// server pair connected through a same-type alternative.
func buildFatTree(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.NewFatTree(4, topology.LinkParams{
		Bandwidth: 10, Latency: 0.1, SwitchCapacity: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// hottestMidSwitch picks a non-access switch that appears on the most
// healthy-fabric BestRoute lists — the victim whose crash must reroute the
// largest number of server pairs.
func hottestMidSwitch(t *testing.T, topo *topology.Topology, o *netstate.Oracle) topology.NodeID {
	t.Helper()
	uses := make(map[topology.NodeID]int)
	servers := topo.Servers()
	for _, a := range servers {
		for _, b := range servers {
			if a == b {
				continue
			}
			list, _, _, ok := o.BestRoute(a, b, netstate.RouteQuery{
				Rate: 1, UnitCost: 1, Stages: stagesFor(t, o, a, b), Full: true,
			})
			if !ok {
				t.Fatalf("no route for %d-%d on the healthy fabric", a, b)
			}
			for _, w := range list {
				if topo.Node(w).Tier > 0 {
					uses[w]++
				}
			}
		}
	}
	victim, best := topology.None, -1
	for w, n := range uses {
		if n > best || (n == best && w < victim) {
			victim, best = w, n
		}
	}
	if victim == topology.None {
		t.Fatal("no non-access switch appears on any route")
	}
	return victim
}

// TestChaosBestRouteNeverNamesDeadSwitch is the staleness regression for
// liveness changes: route every pair on the healthy fabric, crash the
// most-used non-access switch mid-run, and assert that neither the
// memoized stage lists nor any subsequent BestRoute answer names it.
func TestChaosBestRouteNeverNamesDeadSwitch(t *testing.T) {
	topo := buildFatTree(t)
	o := netstate.New(topo)
	victim := hottestMidSwitch(t, topo, o)

	if err := topo.SetNodeAlive(victim, false); err != nil {
		t.Fatal(err)
	}
	servers := topo.Servers()
	for _, a := range servers {
		for _, b := range servers {
			if a == b {
				continue
			}
			// Re-fetch stages the way the controller does on every solve;
			// the per-type lists must already exclude the dead switch.
			stages := stagesFor(t, o, a, b)
			for _, st := range stages {
				for _, w := range st {
					if w == victim {
						t.Fatalf("stage list for %d-%d still offers dead switch %d", a, b, victim)
					}
				}
			}
			list, _, _, ok := o.BestRoute(a, b, netstate.RouteQuery{
				Rate: 1, UnitCost: 1, Stages: stages, Full: true,
			})
			if !ok {
				t.Fatalf("no route for %d-%d after killing switch %d (fat-tree should have alternatives)", a, b, victim)
			}
			for _, w := range list {
				if w == victim {
					t.Fatalf("BestRoute(%d,%d) routes through dead switch %d: %v", a, b, victim, list)
				}
			}
		}
	}
}

// TestChaosLivenessParityWithUncached runs a crash/recover cycle and checks
// the memoized oracle against the uncached reference at every step: routes,
// costs and distances must stay bit-identical to a fresh computation both
// while the switch is down and after it recovers.
func TestChaosLivenessParityWithUncached(t *testing.T) {
	topo := buildFatTree(t)
	cached := netstate.New(topo)
	fresh := netstate.NewUncached(topo)
	victim := hottestMidSwitch(t, topo, cached)
	servers := topo.Servers()

	check := func(phase string) {
		t.Helper()
		for _, a := range servers {
			for _, b := range servers {
				if a == b {
					continue
				}
				if cd, fd := cached.Dist(a, b), fresh.Dist(a, b); cd != fd {
					t.Fatalf("%s: Dist(%d,%d) cached %d fresh %d", phase, a, b, cd, fd)
				}
				q := netstate.RouteQuery{Rate: 1.5, UnitCost: 1, Stages: stagesFor(t, cached, a, b), Full: true}
				cl, cc, _, cok := cached.BestRoute(a, b, q)
				fl, fc, _, fok := fresh.BestRoute(a, b, q)
				if cok != fok {
					t.Fatalf("%s: ok mismatch for %d-%d: cached %v fresh %v", phase, a, b, cok, fok)
				}
				if !cok {
					continue
				}
				if math.Float64bits(cc) != math.Float64bits(fc) {
					t.Fatalf("%s: cost mismatch for %d-%d: cached %v fresh %v", phase, a, b, cc, fc)
				}
				for i := range cl {
					if cl[i] != fl[i] {
						t.Fatalf("%s: route mismatch for %d-%d: cached %v fresh %v", phase, a, b, cl, fl)
					}
				}
			}
		}
	}

	check("healthy")
	if err := topo.SetNodeAlive(victim, false); err != nil {
		t.Fatal(err)
	}
	check("crashed")
	if err := topo.SetNodeAlive(victim, true); err != nil {
		t.Fatal(err)
	}
	check("recovered")
}

// TestLivenessInvalidatesStructureCaches covers the remaining structure
// caches: per-type switch lists, shortest paths and access switches must
// all reflect a crash immediately, and flip back on recovery.
func TestLivenessInvalidatesStructureCaches(t *testing.T) {
	topo := buildFatTree(t)
	o := netstate.New(topo)
	victim := hottestMidSwitch(t, topo, o)
	typ := topo.Node(victim).Type

	contains := func(s []topology.NodeID, w topology.NodeID) bool {
		for _, x := range s {
			if x == w {
				return true
			}
		}
		return false
	}

	if !contains(o.SwitchesOfType(typ), victim) {
		t.Fatalf("healthy SwitchesOfType(%q) missing %d", typ, victim)
	}
	if err := topo.SetNodeAlive(victim, false); err != nil {
		t.Fatal(err)
	}
	if contains(o.SwitchesOfType(typ), victim) {
		t.Fatalf("SwitchesOfType(%q) still lists dead switch %d", typ, victim)
	}
	for _, a := range topo.Servers() {
		for _, b := range topo.Servers() {
			if a == b {
				continue
			}
			if contains(o.ShortestPath(a, b), victim) {
				t.Fatalf("ShortestPath(%d,%d) goes through dead switch %d", a, b, victim)
			}
		}
		if acc := o.AccessSwitch(a); acc != topology.None && !topo.Alive(acc) {
			t.Fatalf("AccessSwitch(%d) = dead switch %d", a, acc)
		}
	}
	if err := topo.SetNodeAlive(victim, true); err != nil {
		t.Fatal(err)
	}
	if !contains(o.SwitchesOfType(typ), victim) {
		t.Fatalf("recovered SwitchesOfType(%q) missing %d", typ, victim)
	}
}
