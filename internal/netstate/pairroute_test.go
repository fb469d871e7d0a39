package netstate_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// stagesFor builds the unfiltered stage lists for a server pair, the same
// way the controller does: type template then per-type candidate lists.
func stagesFor(t *testing.T, o *netstate.Oracle, src, dst topology.NodeID) [][]topology.NodeID {
	t.Helper()
	types, err := o.TypeTemplate(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 {
		t.Fatalf("empty type template for %d-%d", src, dst)
	}
	return o.StagesForTemplate(types)
}

// filteredStages drops candidate drop (mod its length) from every
// multi-candidate stage, the shape of a capacity-filtered query, into
// fresh slices. Filtered queries always run the DP; full-stage queries on
// a healthy single-homed fabric are answered in closed form.
func filteredStages(full [][]topology.NodeID, drop int) [][]topology.NodeID {
	out := make([][]topology.NodeID, len(full))
	for i, s := range full {
		out[i] = s
		if len(s) > 1 {
			k := drop % len(s)
			out[i] = append(append([]topology.NodeID(nil), s[:k]...), s[k+1:]...)
		}
	}
	return out
}

// TestBestRouteCachedUncachedParity checks the closed form end to end on
// a healthy tree: for every server pair and several rates, the memoizing
// oracle answers both a first and a repeat full-stage query in closed
// form, bit-identical to a DP solve on an uncached oracle.
func TestBestRouteCachedUncachedParity(t *testing.T) {
	topo := buildTree(t, 3, 3)
	cached := netstate.New(topo)
	fresh := netstate.NewUncached(topo)
	servers := topo.Servers()
	rates := []float64{1, 0.375, 2.718281828}

	for _, rate := range rates {
		for _, a := range servers {
			for _, b := range servers {
				if a == b {
					continue
				}
				q := netstate.RouteQuery{Rate: rate, UnitCost: 1, Stages: stagesFor(t, cached, a, b), Full: true}
				fl, fc, fhit, fok := fresh.BestRoute(a, b, q)
				if fhit {
					t.Fatalf("uncached oracle answered %d-%d in closed form", a, b)
				}
				for pass := 0; pass < 2; pass++ {
					cl, cc, chit, cok := cached.BestRoute(a, b, q)
					if cok != fok {
						t.Fatalf("rate %v pair %d-%d pass %d: ok cached %v, fresh %v", rate, a, b, pass, cok, fok)
					}
					if !chit {
						t.Fatalf("rate %v pair %d-%d pass %d: full-stage query missed the closed form", rate, a, b, pass)
					}
					if !cok {
						continue
					}
					if math.Float64bits(cc) != math.Float64bits(fc) {
						t.Fatalf("rate %v pair %d-%d pass %d: cost cached %v fresh %v", rate, a, b, pass, cc, fc)
					}
					if len(cl) != len(fl) {
						t.Fatalf("rate %v pair %d-%d pass %d: list length %d vs %d", rate, a, b, pass, len(cl), len(fl))
					}
					for i := range cl {
						if cl[i] != fl[i] {
							t.Fatalf("rate %v pair %d-%d pass %d: list %v vs %v", rate, a, b, pass, cl, fl)
						}
					}
				}
			}
		}
	}
}

// checkFilteredDP covers the queries the closed form must leave to the
// DP: capacity-filtered stage lists, two different subsets per pair, at a
// base rate and at one-ulp perturbations of the rate and of the unit cost.
// Each query is asked twice, the second time with the same stage contents
// in fresh slices. Every answer must come from the DP and be bit-identical
// to an uncached oracle's.
func checkFilteredDP(t *testing.T, topo *topology.Topology, pairs int) {
	t.Helper()
	o, ref := netstate.New(topo), netstate.NewUncached(topo)
	servers := topo.Servers()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < pairs; i++ {
		a := servers[rng.Intn(len(servers))]
		b := servers[rng.Intn(len(servers))]
		if a == b {
			continue
		}
		full := stagesFor(t, o, a, b)
		r := 1 + rng.Float64()
		for drop := 0; drop < 2; drop++ {
			for _, q := range []netstate.RouteQuery{
				{Rate: r, UnitCost: 1},
				{Rate: math.Nextafter(r, 2), UnitCost: 1},
				{Rate: r, UnitCost: math.Nextafter(1, 2)},
			} {
				for pass := 0; pass < 2; pass++ {
					q.Stages = filteredStages(full, drop)
					if checkRoute(t, o, ref, a, b, q) {
						t.Fatalf("pair %d-%d drop %d rate %v unit %v pass %d: filtered query answered in closed form",
							a, b, drop, q.Rate, q.UnitCost, pass)
					}
				}
			}
		}
	}
}

// TestBestRouteFilteredRevalidation checks filtered queries on a 27-server
// tree: a repeat with bit-identical stage contents re-solves, a different
// subset of the same size answers for its own subset, and every answer
// matches an uncached oracle bit for bit.
func TestBestRouteFilteredRevalidation(t *testing.T) {
	checkFilteredDP(t, buildTree(t, 3, 3), 60)
}

// TestBestRouteShardedFallback runs the filtered-query checks of
// TestBestRouteFilteredRevalidation on a 512-server tree, where the
// candidate lists are longest.
func TestBestRouteShardedFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("512-server parity test skipped in -short mode")
	}
	checkFilteredDP(t, buildTree(t, 3, 8), 40)
}

// TestPairRouteStats checks hit/miss accounting, the empty-stages edge case
// and a repeat query's cost. Full-stage queries on the healthy tree are
// answered in closed form, and every such answer counts as a hit; every
// filtered query runs the DP and counts as a miss.
func TestPairRouteStats(t *testing.T) {
	topo := buildTree(t, 3, 2)
	o := netstate.New(topo)
	servers := topo.Servers()
	a, b := servers[0], servers[len(servers)-1]
	stages := stagesFor(t, o, a, b)
	q := netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: stages, Full: true}

	if h, m := o.PairRouteStats(); h != 0 || m != 0 {
		t.Fatalf("fresh oracle stats: %d hits, %d misses", h, m)
	}
	// Empty stages: no solve, no accounting.
	if _, _, _, ok := o.BestRoute(a, b, netstate.RouteQuery{Rate: 1, UnitCost: 1}); ok {
		t.Fatal("empty-stage query reported ok")
	}
	if h, m := o.PairRouteStats(); h != 0 || m != 0 {
		t.Fatalf("stats after empty-stage query: %d hits, %d misses", h, m)
	}

	_, cost, _, ok := o.BestRoute(a, b, q)
	if !ok {
		t.Fatal("solve failed")
	}
	o.BestRoute(a, b, q)
	o.BestRoute(b, a, netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: stagesFor(t, o, b, a), Full: true})
	if h, m := o.PairRouteStats(); h != 3 || m != 0 {
		t.Fatalf("stats: %d hits, %d misses, want 3 closed-form hits and no miss", h, m)
	}
	filtered := netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: filteredStages(stages, 0)}
	o.BestRoute(a, b, filtered)
	o.BestRoute(a, b, filtered)
	if h, m := o.PairRouteStats(); h != 3 || m != 2 {
		t.Fatalf("stats: %d hits, %d misses, want 3 hits 2 misses", h, m)
	}

	_, c2, _, ok2 := o.BestRoute(a, b, q)
	if !ok2 || math.Float64bits(c2) != math.Float64bits(cost) {
		t.Fatalf("repeat BestRoute cost %v (ok=%v), want %v", c2, ok2, cost)
	}
	if h, _ := o.PairRouteStats(); h != 4 {
		t.Fatalf("repeat BestRoute did not hit: %d hits", h)
	}
}
