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

// filteredStages drops the last candidate of every multi-candidate stage,
// the shape of a capacity-filtered query. Filtered queries always take the
// rate-keyed, server-pair path; full-stage queries on a healthy
// single-homed fabric are answered rate-free from the access-pair table.
func filteredStages(full [][]topology.NodeID) [][]topology.NodeID {
	out := make([][]topology.NodeID, len(full))
	for i, s := range full {
		out[i] = s
		if len(s) > 1 {
			out[i] = s[:len(s)-1]
		}
	}
	return out
}

// TestBestRouteCachedUncachedParity checks the core memoization contract:
// for every server pair and several rates, the cached oracle's BestRoute
// answer — on both the miss (first) and hit (second) call — is
// bit-identical to a fresh solve on an uncached oracle.
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
					t.Fatalf("uncached oracle reported a cache hit for %d-%d", a, b)
				}
				for pass := 0; pass < 2; pass++ {
					cl, cc, chit, cok := cached.BestRoute(a, b, q)
					if cok != fok {
						t.Fatalf("rate %v pair %d-%d pass %d: ok cached %v, fresh %v", rate, a, b, pass, cok, fok)
					}
					if pass == 1 && !chit {
						t.Fatalf("rate %v pair %d-%d: second identical query missed the cache", rate, a, b)
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

// TestBestRouteFullSurvivesEpochBump asserts the load-independence
// contract: a full-stage entry keeps hitting after epoch bumps, because
// switch load never enters the objective. BCube's multi-homed servers keep
// the query on the rate-keyed path, where the entry is stored.
func TestBestRouteFullSurvivesEpochBump(t *testing.T) {
	topo, err := topology.NewBCube(3, 1, topology.LinkParams{Bandwidth: 10, Latency: 0.1, SwitchCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	o := netstate.New(topo)
	servers := topo.Servers()
	a, b := servers[0], servers[len(servers)-1]
	q := netstate.RouteQuery{Rate: 1.5, UnitCost: 1, Stages: stagesFor(t, o, a, b), Full: true}

	list1, cost1, hit1, ok1 := o.BestRoute(a, b, q)
	if !ok1 || hit1 {
		t.Fatalf("first solve: ok=%v hit=%v, want solve miss", ok1, hit1)
	}
	for i := 0; i < 5; i++ {
		o.BumpEpoch()
	}
	list2, cost2, hit2, ok2 := o.BestRoute(a, b, q)
	if !ok2 || !hit2 {
		t.Fatalf("post-bump query: ok=%v hit=%v, want cache hit", ok2, hit2)
	}
	if math.Float64bits(cost1) != math.Float64bits(cost2) {
		t.Fatalf("cost changed across epoch bump: %v vs %v", cost1, cost2)
	}
	for i := range list1 {
		if list1[i] != list2[i] {
			t.Fatalf("list changed across epoch bump: %v vs %v", list1, list2)
		}
	}
}

// TestBestRouteFilteredRevalidation exercises the non-full validity rule:
// a filtered entry is reused only for bit-identical stage lists; a
// different subset — even of the same size — must re-solve, and the
// re-solve must agree with an uncached oracle over the same subset.
func TestBestRouteFilteredRevalidation(t *testing.T) {
	topo := buildTree(t, 3, 3)
	o := netstate.New(topo)
	fresh := netstate.NewUncached(topo)
	servers := topo.Servers()
	a, b := servers[0], servers[len(servers)-1]
	full := stagesFor(t, o, a, b)

	// Drop one candidate from each multi-candidate stage to build two
	// distinct filtered subsets.
	subset := func(drop int) [][]topology.NodeID {
		out := make([][]topology.NodeID, len(full))
		for i, s := range full {
			if len(s) > 1 {
				cp := append([]topology.NodeID(nil), s...)
				k := drop % len(cp)
				out[i] = append(cp[:k], cp[k+1:]...)
			} else {
				out[i] = s
			}
		}
		return out
	}
	s1, s2 := subset(0), subset(1)

	q1 := netstate.RouteQuery{Rate: 2, UnitCost: 1, Stages: s1}
	if _, _, hit, ok := o.BestRoute(a, b, q1); !ok || hit {
		t.Fatalf("first filtered solve: ok=%v hit=%v", ok, hit)
	}
	// Same stage contents, different backing slices: must still hit.
	q1b := netstate.RouteQuery{Rate: 2, UnitCost: 1, Stages: subset(0)}
	l1, c1, hit, ok := o.BestRoute(a, b, q1b)
	if !ok || !hit {
		t.Fatalf("identical filtered re-query: ok=%v hit=%v, want hit", ok, hit)
	}
	fl, fc, _, fok := fresh.BestRoute(a, b, q1b)
	if !fok || math.Float64bits(c1) != math.Float64bits(fc) || len(l1) != len(fl) {
		t.Fatalf("filtered cached solve diverges from fresh: %v/%v vs %v/%v", l1, c1, fl, fc)
	}

	// Different subset: the stale entry must not answer.
	q2 := netstate.RouteQuery{Rate: 2, UnitCost: 1, Stages: s2}
	l2, c2, hit2, ok2 := o.BestRoute(a, b, q2)
	if !ok2 || hit2 {
		t.Fatalf("different filtered subset: ok=%v hit=%v, want re-solve", ok2, hit2)
	}
	fl2, fc2, _, _ := fresh.BestRoute(a, b, q2)
	if math.Float64bits(c2) != math.Float64bits(fc2) || len(l2) != len(fl2) {
		t.Fatalf("re-solved subset diverges from fresh: %v/%v vs %v/%v", l2, c2, fl2, fc2)
	}
}

// TestBestRouteRateKeying asserts rate and unit cost are part of the
// rate-keyed path's key: changing either bit pattern misses even on the
// same pair and stages. The queries use filtered stages, which keeps them
// on that path.
func TestBestRouteRateKeying(t *testing.T) {
	topo := buildTree(t, 3, 2)
	o := netstate.New(topo)
	servers := topo.Servers()
	a, b := servers[0], servers[len(servers)-1]
	stages := filteredStages(stagesFor(t, o, a, b))

	base := netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: stages}
	_, baseCost, _, ok := o.BestRoute(a, b, base)
	if !ok {
		t.Fatal("base solve failed")
	}
	for _, q := range []netstate.RouteQuery{
		{Rate: math.Nextafter(1, 2), UnitCost: 1, Stages: stages},
		{Rate: 1, UnitCost: math.Nextafter(1, 2), Stages: stages},
	} {
		if _, _, hit, ok := o.BestRoute(a, b, q); !ok || hit {
			t.Fatalf("perturbed query (rate=%v unit=%v): ok=%v hit=%v, want miss+solve", q.Rate, q.UnitCost, ok, hit)
		}
	}
	// The cache keeps one entry per pair (last writer wins), so the base
	// key now re-solves — and must still give a bit-identical answer.
	_, c, hit, ok := o.BestRoute(a, b, base)
	if !ok || hit {
		t.Fatalf("base re-query after perturbed stores: ok=%v hit=%v, want miss+solve", ok, hit)
	}
	if math.Float64bits(c) != math.Float64bits(baseCost) {
		t.Fatalf("base re-solve cost %v, want %v", c, baseCost)
	}
}

// TestPairRouteStats checks hit/miss accounting, the empty-stages edge case
// and a repeat query's cost. Full-stage queries on the healthy tree are answered
// in closed form, and every such answer counts as a hit; a filtered query
// misses once, then hits.
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
	filtered := netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: filteredStages(stages)}
	o.BestRoute(a, b, filtered)
	o.BestRoute(a, b, filtered)
	if h, m := o.PairRouteStats(); h != 4 || m != 1 {
		t.Fatalf("stats: %d hits, %d misses, want 4 hits 1 miss", h, m)
	}

	_, c2, _, ok2 := o.BestRoute(a, b, q)
	if !ok2 || math.Float64bits(c2) != math.Float64bits(cost) {
		t.Fatalf("repeat BestRoute cost %v (ok=%v), want %v", c2, ok2, cost)
	}
	if h, _ := o.PairRouteStats(); h != 5 {
		t.Fatalf("repeat BestRoute did not hit: %d hits", h)
	}
}

// TestBestRouteShardedFallback drives the route-map path: a 512-server
// fabric exceeds denseRouteLimit (512² > 2¹⁷), so entries land in the one
// route map, not the dense table. Random pairs must still hit on re-query
// and agree with an uncached solve. Filtered stages keep the queries on
// the server-pair store.
func TestBestRouteShardedFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("512-server cache test skipped in -short mode")
	}
	topo := buildTree(t, 3, 8)
	o := netstate.New(topo)
	fresh := netstate.NewUncached(topo)
	servers := topo.Servers()
	if n := len(servers); n*n <= 1<<17 {
		t.Fatalf("topology too small to exercise the route map: %d servers", n)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		a := servers[rng.Intn(len(servers))]
		b := servers[rng.Intn(len(servers))]
		if a == b {
			continue
		}
		q := netstate.RouteQuery{Rate: 1 + rng.Float64(), UnitCost: 1, Stages: filteredStages(stagesFor(t, o, a, b))}
		l1, c1, hit1, ok1 := o.BestRoute(a, b, q)
		if !ok1 || hit1 {
			t.Fatalf("pair %d-%d: first query ok=%v hit=%v", a, b, ok1, hit1)
		}
		l2, c2, hit2, ok2 := o.BestRoute(a, b, q)
		if !ok2 || !hit2 {
			t.Fatalf("pair %d-%d: re-query ok=%v hit=%v, want hit", a, b, ok2, hit2)
		}
		fl, fc, _, _ := fresh.BestRoute(a, b, q)
		if math.Float64bits(c1) != math.Float64bits(fc) || math.Float64bits(c2) != math.Float64bits(fc) {
			t.Fatalf("pair %d-%d: costs %v/%v, fresh %v", a, b, c1, c2, fc)
		}
		for k := range fl {
			if l1[k] != fl[k] || l2[k] != fl[k] {
				t.Fatalf("pair %d-%d: lists %v/%v, fresh %v", a, b, l1, l2, fl)
			}
		}
	}
	if ms := o.MemoryStats(); ms.RoutesDense != 0 || ms.RoutesMap == 0 {
		t.Fatalf("route census %d dense, %d mapped; want every entry in the route map", ms.RoutesDense, ms.RoutesMap)
	}
}
