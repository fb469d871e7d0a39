package netstate_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// unitFabric is one healthy single-homed fabric the closed form serves,
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

// TestUnitRouteMatchesUncached is the exactness property of the
// closed-form routes: on every healthy single-homed fabric, for server
// pairs in the same rack, the same pod and across the core, and for rates
// from tiny to huge (including one-ulp perturbations), the cached answer is
// bit-identical to a fresh solve at the flow's own rate. Every normal
// rate×unit is answered in closed form; a subnormal one must fall back to
// the rate-keyed path.
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
							t.Fatalf("pair %d-%d rate %v unit %v: missed the closed form", a, b, rate, unit)
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

// TestUnitRouteFallbacks covers the fabrics the closed form must not
// serve: BCube's multi-homed servers and a fat-tree with a dead switch both
// take the rate-keyed path (a one-ulp rate change misses). After recovery
// the closed form answers again.
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
		// Route every pair on the healthy fabric.
		for _, pr := range pairs {
			checkRoute(t, o, ref, pr[0], pr[1], netstate.RouteQuery{
				Rate: 1, UnitCost: 1, Stages: stagesFor(t, o, pr[0], pr[1]), Full: true,
			})
		}
		victim := hottestMidSwitch(t, topo, o)
		// The closed form answered every one: the memory census holds no
		// stored entry.
		if ms := o.MemoryStats(); ms.RoutesSharded != 0 || ms.RoutesDense != 0 {
			t.Fatalf("route census %d sharded, %d dense after the healthy warm-up; want no stored entry",
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
				t.Fatalf("pair %d-%d after recovery: perturbed rate missed, want the closed form", a, b)
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

// TestUnitRouteGuards pins the structural guards with full-stage queries
// built to break the exactness argument. Each runs many rates on one
// oracle, so a guard that lets the closed form answer is caught by a cost
// that differs from the fresh solve.
func TestUnitRouteGuards(t *testing.T) {
	topo := buildTree(t, 3, 2)
	rates := make([]float64, 400)
	rng := rand.New(rand.NewSource(9))
	for i := range rates {
		rates[i] = math.Exp(rng.Float64()*8 - 4)
	}

	// Five core stages between servers of one rack: the DP's route sits on
	// the core switch with segments 3+0+0+0+0+3, which totals
	// len(stages)+1 but is not all one-hop, and 2·fl(3c) differs from c
	// summed six times for about half of all c. The pair's template has
	// one stage, so the template guard keeps the closed form out; the
	// depth-4 tree of TestUnitRouteExhaustive covers the adjacent-type
	// guard.
	t.Run("adjacent-types", func(t *testing.T) {
		o, ref := netstate.New(topo), netstate.NewUncached(topo)
		a, b := sameDistPair(t, topo, 2)
		core := o.SwitchesOfType(topology.TypeCore)
		stages := [][]topology.NodeID{core, core, core, core, core}
		for _, r := range rates {
			checkRoute(t, o, ref, a, b, netstate.RouteQuery{Rate: r, UnitCost: 1, Stages: stages, Full: true})
		}
	})

	// One core stage between servers of one rack: the DP's route costs
	// 3+3 hops, not len(stages)+1. The template guard keeps the closed
	// form out.
	t.Run("unit-cost", func(t *testing.T) {
		o, ref := netstate.New(topo), netstate.NewUncached(topo)
		a, b := sameDistPair(t, topo, 2)
		stages := [][]topology.NodeID{o.SwitchesOfType(topology.TypeCore)}
		for _, r := range rates {
			checkRoute(t, o, ref, a, b, netstate.RouteQuery{Rate: r, UnitCost: 1, Stages: stages, Full: true})
		}
	})
}

// refUnitDP is the layered DP of Algorithm 1 at rate = unit cost = 1, in
// integer hops over BFS distance rows (row(x)[y] is the hop distance from
// x to y), keeping the first index at every tie exactly as the oracle's
// DP does. It returns the route and its hop count.
func refUnitDP(row func(topology.NodeID) []int32, src, dst topology.NodeID, stages [][]topology.NodeID) ([]topology.NodeID, int) {
	cost := make([]int, len(stages[0]))
	for i, w := range stages[0] {
		cost[i] = int(row(src)[w])
	}
	prev := make([][]int, len(stages))
	for s := 1; s < len(stages); s++ {
		next := make([]int, len(stages[s]))
		prev[s] = make([]int, len(stages[s]))
		for j, w := range stages[s] {
			best := math.MaxInt
			for k, v := range stages[s-1] {
				if c := cost[k] + int(row(v)[w]); c < best {
					best, prev[s][j] = c, k
				}
			}
			next[j] = best
		}
		cost = next
	}
	best, j := math.MaxInt, -1
	for i, w := range stages[len(stages)-1] {
		if c := cost[i] + int(row(w)[dst]); c < best {
			best, j = c, i
		}
	}
	list := make([]topology.NodeID, len(stages))
	for s := len(stages) - 1; s >= 0; s-- {
		list[s] = stages[s][j]
		if s > 0 {
			j = prev[s][j]
		}
	}
	return list, best
}

// TestUnitRouteExhaustive proves the closed form against the DP on every
// ordered pair of access switches (one server per rack, and a rack with
// itself where it holds two servers) of small Tree, Fat-Tree and VL2
// fabrics and of the 10,000-server rack tree. Each pair's first query on
// a cached oracle, at rate = unit cost = 1, must agree with refUnitDP over
// NewUncached's BFS rows in route, cost and accept/reject: the closed form
// answers (a hit) exactly when the DP's rule for a rate-free route holds —
// no two adjacent stages of one switch type and a route of len(stages)+1
// hops — and a rejected pair misses and takes the DP. On fabrics of at
// most 128 nodes, NewUncached's own BestRoute is checked against refUnitDP
// too; on the two larger ones its per-segment BFS would take minutes.
func TestUnitRouteExhaustive(t *testing.T) {
	p := topology.LinkParams{Bandwidth: 10, Latency: 0.1, SwitchCapacity: 100}
	type fabric struct {
		name    string
		build   func() (*topology.Topology, error)
		rejects int
	}
	fabrics := []fabric{
		{"paper-tree", func() (*topology.Topology, error) { return topology.NewPaperTree(p) }, 0},
		{"case-study", func() (*topology.Topology, error) {
			topo, _, err := topology.NewCaseStudyTree(p)
			return topo, err
		}, 0},
		{"tree-2-3", func() (*topology.Topology, error) { return topology.NewTree(2, 3, p) }, 0},
		{"racks-3-3-4", func() (*topology.Topology, error) { return topology.NewTreeWithRacks(3, 3, 4, p) }, 0},
		{"racks-3-10-100", func() (*topology.Topology, error) { return topology.NewTreeWithRacks(3, 10, 100, p) }, 0},
		// Depth 4: a pair that crosses two aggregation tiers has adjacent
		// aggregation stages, which the DP may fill with one switch twice.
		{"tree-4-2", func() (*topology.Topology, error) { return topology.NewTree(4, 2, p) }, 48},
	}
	for _, k := range []int{2, 4, 6, 8} {
		fabrics = append(fabrics, fabric{fmt.Sprintf("fattree-%d", k), func() (*topology.Topology, error) { return topology.NewFatTree(k, p) }, 0})
	}
	for _, c := range [][4]int{{2, 1, 1, 2}, {4, 2, 2, 3}, {3, 2, 2, 2}, {6, 4, 3, 2}, {5, 3, 4, 1}} {
		fabrics = append(fabrics, fabric{fmt.Sprintf("vl2-%d-%d-%d-%d", c[0], c[1], c[2], c[3]), func() (*topology.Topology, error) {
			return topology.NewVL2(c[0], c[1], c[2], c[3], p)
		}, 0})
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			topo, err := fab.build()
			if err != nil {
				t.Fatal(err)
			}
			o, ref := netstate.New(topo), netstate.NewUncached(topo)
			rows := make([][]int32, topo.NumNodes())
			row := func(x topology.NodeID) []int32 {
				if rows[x] == nil {
					rows[x] = ref.DistRow(x)
				}
				return rows[x]
			}
			// The first two servers of every rack, in rack order.
			var racks [][]topology.NodeID
			rackOf := make(map[topology.NodeID]int)
			for _, s := range topo.Servers() {
				acc := topo.AccessSwitch(s)
				r, seen := rackOf[acc]
				if !seen {
					r = len(racks)
					rackOf[acc] = r
					racks = append(racks, nil)
				}
				if len(racks[r]) < 2 {
					racks[r] = append(racks[r], s)
				}
			}
			pairs, rejects := 0, 0
			for _, ra := range racks {
				for _, rb := range racks {
					a, b := ra[0], rb[0]
					if a == b {
						if len(ra) < 2 {
							continue
						}
						b = ra[1]
					}
					pairs++
					stages := stagesFor(t, o, a, b)
					want, hops := refUnitDP(row, a, b, stages)
					accept := hops == len(stages)+1
					for i := 1; i < len(stages); i++ {
						if topo.Node(stages[i][0]).Type == topo.Node(stages[i-1][0]).Type {
							accept = false
						}
					}
					if !accept {
						rejects++
					}
					q := netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: stages, Full: true}
					got, cost, hit, ok := o.BestRoute(a, b, q)
					if !ok || hit != accept || fmt.Sprint(got) != fmt.Sprint(want) || cost != float64(hops) {
						t.Fatalf("pair %d-%d: route %v cost %v closed form %v ok %v; DP route %v hops %d accept %v",
							a, b, got, cost, hit, ok, want, hops, accept)
					}
					if topo.NumNodes() <= 128 {
						if rl, rc, _, rok := ref.BestRoute(a, b, q); !rok || fmt.Sprint(rl) != fmt.Sprint(want) || rc != float64(hops) {
							t.Fatalf("pair %d-%d: NewUncached route %v cost %v, refUnitDP %v hops %d", a, b, rl, rc, want, hops)
						}
					}
				}
			}
			if rejects != fab.rejects {
				t.Fatalf("%d of %d pairs rejected, want %d", rejects, pairs, fab.rejects)
			}
		})
	}
}

// TestUnitRouteAllocs pins the closed form's cost: one allocation, the
// returned list, per answer on a healthy tree, Fat-Tree and VL2, and none
// for the per-class type template.
func TestUnitRouteAllocs(t *testing.T) {
	for _, fab := range unitFabrics(t) {
		t.Run(fab.name, func(t *testing.T) {
			o := netstate.New(fab.topo)
			srv := fab.topo.Servers()
			a, b := srv[0], srv[len(srv)-1]
			q := netstate.RouteQuery{Rate: 0.7, UnitCost: 1, Stages: stagesFor(t, o, a, b), Full: true}
			if _, _, hit, ok := o.BestRoute(a, b, q); !ok || !hit {
				t.Fatalf("pair %d-%d: ok %v closed form %v", a, b, ok, hit)
			}
			if n := testing.AllocsPerRun(100, func() { o.BestRoute(a, b, q) }); n != 1 {
				t.Fatalf("BestRoute allocates %v times per closed-form answer, want 1", n)
			}
			if n := testing.AllocsPerRun(100, func() { o.TypeTemplate(a, b) }); n != 0 {
				t.Fatalf("TypeTemplate allocates %v times per call, want 0", n)
			}
		})
	}
}
