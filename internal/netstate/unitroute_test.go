package netstate_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// unitFabric is one healthy single-homed fabric the unit route serves,
// with the number of server pairs to sample per distance class (the
// uncached reference runs a BFS per segment, so big fabrics sample few).
type unitFabric struct {
	name     string
	topo     *topology.Topology
	perClass int
}

func unitFabrics(t *testing.T) []unitFabric {
	t.Helper()
	p := topology.LinkParams{Bandwidth: 10, Latency: 0.1, SwitchCapacity: 100}
	var out []unitFabric
	add := func(name string, perClass int, topo *topology.Topology, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, unitFabric{name, topo, perClass})
	}
	topo, err := topology.NewPaperTree(p)
	add("paper-tree", 16, topo, err)
	topo, err = topology.NewTreeWithRacks(3, 3, 4, p)
	add("tree-racks", 16, topo, err)
	topo, err = topology.NewFatTree(4, p)
	add("fattree-4", 16, topo, err)
	topo, err = topology.NewFatTree(8, p)
	add("fattree-8", 2, topo, err)
	topo, err = topology.NewVL2(4, 2, 2, 3, p)
	add("vl2", 16, topo, err)
	return out
}

// samplePairs draws up to perClass ordered server pairs from every hop
// distance class of the fabric: same rack, same pod, across the core.
func samplePairs(topo *topology.Topology, rng *rand.Rand, perClass int) [][2]topology.NodeID {
	byDist := make(map[int][][2]topology.NodeID)
	var dists []int
	for _, a := range topo.Servers() {
		for _, b := range topo.Servers() {
			if a == b {
				continue
			}
			d := topo.Dist(a, b)
			if _, ok := byDist[d]; !ok {
				dists = append(dists, d)
			}
			byDist[d] = append(byDist[d], [2]topology.NodeID{a, b})
		}
	}
	var out [][2]topology.NodeID
	for _, d := range dists {
		class := byDist[d]
		rng.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
		if len(class) > perClass {
			class = class[:perClass]
		}
		out = append(out, class...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkRoute runs one query on the cached oracle and on the uncached
// reference and fails unless list and cost bits agree. It reports whether
// the cached oracle answered from a cache.
func checkRoute(t *testing.T, o, ref *netstate.Oracle, a, b topology.NodeID, q netstate.RouteQuery) bool {
	t.Helper()
	l, c, hit, ok := o.BestRoute(a, b, q)
	rl, rc, _, rok := ref.BestRoute(a, b, q)
	if ok != rok {
		t.Fatalf("pair %d-%d rate %v unit %v: ok %v, reference %v", a, b, q.Rate, q.UnitCost, ok, rok)
	}
	if math.Float64bits(c) != math.Float64bits(rc) {
		t.Fatalf("pair %d-%d rate %v unit %v: cost %v (%#x), reference %v (%#x)",
			a, b, q.Rate, q.UnitCost, c, math.Float64bits(c), rc, math.Float64bits(rc))
	}
	if fmt.Sprint(l) != fmt.Sprint(rl) {
		t.Fatalf("pair %d-%d rate %v unit %v: route %v, reference %v", a, b, q.Rate, q.UnitCost, l, rl)
	}
	return hit
}

// TestUnitRouteMatchesUncached is the exactness property of the rate-free
// access-pair routes: on every healthy single-homed fabric, for server
// pairs in the same rack, the same pod and across the core, and for rates
// from tiny to huge (including one-ulp perturbations), the cached answer is
// bit-identical to a fresh solve at the flow's own rate. Once an access
// pair's unit route exists, every normal rate is answered from it; a
// subnormal rate×unit must fall back to the rate-keyed path.
func TestUnitRouteMatchesUncached(t *testing.T) {
	for _, fab := range unitFabrics(t) {
		t.Run(fab.name, func(t *testing.T) {
			o := netstate.New(fab.topo)
			ref := netstate.NewUncached(fab.topo)
			rng := rand.New(rand.NewSource(3))
			for _, p := range samplePairs(fab.topo, rng, fab.perClass) {
				a, b := p[0], p[1]
				stages := stagesFor(t, o, a, b)
				q := func(rate, unit float64) netstate.RouteQuery {
					return netstate.RouteQuery{Rate: rate, UnitCost: unit, Stages: stages, Full: true}
				}
				r := math.Exp(rng.Float64()*20 - 10)
				for _, unit := range []float64{1, 0.3, 1 + rng.Float64()} {
					checkRoute(t, o, ref, a, b, q(r, unit))
					for _, rate := range []float64{
						math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)),
						1e-300, 1e300, rng.Float64() * 64, rng.ExpFloat64(),
					} {
						if !checkRoute(t, o, ref, a, b, q(rate, unit)) {
							t.Fatalf("pair %d-%d rate %v unit %v: missed the unit route", a, b, rate, unit)
						}
					}
					for _, rate := range []float64{5e-324, 1e-310} {
						if checkRoute(t, o, ref, a, b, q(rate, unit)) {
							t.Fatalf("pair %d-%d subnormal rate %v unit %v: answered from a cache, want a rate-keyed solve",
								a, b, rate, unit)
						}
					}
				}
			}
		})
	}
}

// TestUnitRouteFallbacks covers the fabrics the unit route must not serve:
// BCube's multi-homed servers and a fat-tree with a dead switch both take
// the rate-keyed path (a one-ulp rate change misses). After recovery the
// unit route answers again.
func TestUnitRouteFallbacks(t *testing.T) {
	p := topology.LinkParams{Bandwidth: 10, Latency: 0.1, SwitchCapacity: 100}
	rateKeyed := func(t *testing.T, o, ref *netstate.Oracle, pairs [][2]topology.NodeID) {
		t.Helper()
		for i, pr := range pairs {
			a, b := pr[0], pr[1]
			stages := stagesFor(t, o, a, b)
			r := 1 + float64(i)/7
			for _, rate := range []float64{r, math.Nextafter(r, 2*r)} {
				if checkRoute(t, o, ref, a, b, netstate.RouteQuery{Rate: rate, UnitCost: 1, Stages: stages, Full: true}) {
					t.Fatalf("pair %d-%d rate %v: cache hit, want a rate-keyed solve", a, b, rate)
				}
			}
		}
	}

	t.Run("bcube", func(t *testing.T) {
		topo, err := topology.NewBCube(4, 1, p)
		if err != nil {
			t.Fatal(err)
		}
		rateKeyed(t, netstate.New(topo), netstate.NewUncached(topo), samplePairs(topo, rand.New(rand.NewSource(5)), 8))
	})

	t.Run("dead-switch", func(t *testing.T) {
		topo := buildFatTree(t)
		o := netstate.New(topo)
		ref := netstate.NewUncached(topo)
		pairs := samplePairs(topo, rand.New(rand.NewSource(5)), 8)
		// Warm the unit routes on the healthy fabric.
		for _, pr := range pairs {
			checkRoute(t, o, ref, pr[0], pr[1], netstate.RouteQuery{
				Rate: 1, UnitCost: 1, Stages: stagesFor(t, o, pr[0], pr[1]), Full: true,
			})
		}
		victim := hottestMidSwitch(t, topo, o)
		// Every server pair has been routed: the memory census holds one
		// unit route per ordered pair of the 8 racks and no server-pair
		// entry.
		if ms := o.MemoryStats(); ms.RoutesSharded != 64 || ms.RoutesDense != 0 {
			t.Fatalf("route census %d sharded, %d dense; want 64 unit routes and no server-pair entries",
				ms.RoutesSharded, ms.RoutesDense)
		}
		if err := topo.SetNodeAlive(victim, false); err != nil {
			t.Fatal(err)
		}
		rateKeyed(t, o, ref, pairs)
		if err := topo.SetNodeAlive(victim, true); err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			a, b := pr[0], pr[1]
			stages := stagesFor(t, o, a, b)
			checkRoute(t, o, ref, a, b, netstate.RouteQuery{Rate: 3, UnitCost: 1, Stages: stages, Full: true})
			if !checkRoute(t, o, ref, a, b, netstate.RouteQuery{Rate: math.Nextafter(3, 4), UnitCost: 1, Stages: stages, Full: true}) {
				t.Fatalf("pair %d-%d after recovery: perturbed rate missed, want the unit route", a, b)
			}
		}
	})
}

// sameDistPair returns the first ordered server pair at hop distance d.
func sameDistPair(t *testing.T, topo *topology.Topology, d int) (topology.NodeID, topology.NodeID) {
	t.Helper()
	for _, a := range topo.Servers() {
		for _, b := range topo.Servers() {
			if a != b && topo.Dist(a, b) == d {
				return a, b
			}
		}
	}
	t.Fatalf("no server pair at distance %d", d)
	return topology.None, topology.None
}

// TestUnitRouteGuards pins the two structural guards with full-stage
// queries built to break the exactness argument. Each runs many rates on
// one oracle, so a guard that lets the unit route answer is caught by a
// cost that differs from the fresh solve.
func TestUnitRouteGuards(t *testing.T) {
	topo := buildTree(t, 3, 2)
	rates := make([]float64, 400)
	rng := rand.New(rand.NewSource(9))
	for i := range rates {
		rates[i] = math.Exp(rng.Float64()*8 - 4)
	}

	// Five core stages between servers of one rack: the unit route sits on
	// the core switch with segments 3+0+0+0+0+3, which totals
	// len(stages)+1 but is not all one-hop, and 2·fl(3c) differs from c
	// summed six times for about half of all c. Only the adjacent-type
	// guard keeps the unit route out.
	t.Run("adjacent-types", func(t *testing.T) {
		o, ref := netstate.New(topo), netstate.NewUncached(topo)
		a, b := sameDistPair(t, topo, 2)
		core := o.SwitchesOfType(topology.TypeCore)
		stages := [][]topology.NodeID{core, core, core, core, core}
		for _, r := range rates {
			checkRoute(t, o, ref, a, b, netstate.RouteQuery{Rate: r, UnitCost: 1, Stages: stages, Full: true})
		}
	})

	// One core stage between servers of one rack: the unit route costs
	// 3+3 hops, not len(stages)+1. Only the unit-cost guard keeps it out.
	t.Run("unit-cost", func(t *testing.T) {
		o, ref := netstate.New(topo), netstate.NewUncached(topo)
		a, b := sameDistPair(t, topo, 2)
		stages := [][]topology.NodeID{o.SwitchesOfType(topology.TypeCore)}
		for _, r := range rates {
			checkRoute(t, o, ref, a, b, netstate.RouteQuery{Rate: r, UnitCost: 1, Stages: stages, Full: true})
		}
	})
}
