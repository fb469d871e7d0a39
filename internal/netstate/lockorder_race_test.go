package netstate_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// TestLockOrderHammer empirically corroborates the lock graph the
// taalint lockorder check proves statically: reviveMu is the only lock
// held while acquiring others (pairMu, typeMu and the pair-route shard
// stripes, all inside ensureLive), so concurrent readers racing into a
// liveness revival must neither deadlock nor trip the race detector.
//
// Each round flips a mid-tier switch's liveness on a single goroutine
// (SetNodeAlive is single-writer by contract), then releases a wave of
// readers that all observe the stale epoch at once: every one of them
// calls ensureLive, one wins reviveMu and rebuilds (nesting pairMu,
// typeMu and the route shards under it), and the rest pile up behind it
// while more readers exercise the dist-row, pair-route, type-template
// and headroom lock domains it is invalidating. A lock-order inversion
// anywhere in that set hangs this test; a missed-lock shortcut is a
// -race report.
//
// Every reader also sweeps every ordered pair of racks at its own rates,
// so while one round's revival resets the route shards, others publish
// and read rate-keyed routes (liveness flipped off) or closed-form routes
// (healthy) for all 56 access pairs. After the final recovery each pair
// must answer in closed form again, bit-identical to an uncached solve.
func TestLockOrderHammer(t *testing.T) {
	topo := buildFatTree(t)
	o := netstate.New(topo)
	servers := topo.Servers()
	if len(servers) < 4 {
		t.Fatal("fat-tree too small for the hammer test")
	}
	var victim topology.NodeID = topology.None
	for _, id := range topo.Switches() {
		if topo.Node(id).Tier > 0 {
			victim = id
			break
		}
	}
	if victim == topology.None {
		t.Fatal("no non-access switch in the fat-tree")
	}

	const (
		rounds  = 8
		readers = 6
		queries = 10
	)
	// One server per rack: every ordered pair is a distinct access pair.
	var reps []topology.NodeID
	seenRack := make(map[topology.NodeID]bool)
	for _, s := range servers {
		if acc := topo.AccessSwitch(s); !seenRack[acc] {
			seenRack[acc] = true
			reps = append(reps, s)
		}
	}
	for round := 0; round < rounds; round++ {
		// Single-threaded liveness flip between waves: after this, every
		// reader's first oracle call finds the liveness epoch stale and
		// races into ensureLive.
		if err := topo.SetNodeAlive(victim, round%2 != 0); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < queries; i++ {
					a := servers[(seed+i)%len(servers)]
					b := servers[(seed+2*i+1)%len(servers)]
					if a == b {
						continue
					}
					// distMu + reviveMu domains.
					row := o.DistRow(a)
					if len(row) == 0 {
						t.Errorf("empty dist row for %d", a)
					}
					_ = o.Dist(a, b)
					_ = o.ShortestPath(a, b)
					// typeMu domain (template + stage caches).
					types, err := o.TypeTemplate(a, b)
					if err != nil {
						t.Errorf("TypeTemplate(%d,%d): %v", a, b, err)
						continue
					}
					stages := o.StagesForTemplate(types)
					// Pair-route shard stripes, the locks ensureLive
					// clears via clearPairRoutes while revived readers
					// repopulate them.
					q := netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: stages, Full: true}
					if _, _, _, ok := o.BestRoute(a, b, q); !ok {
						t.Errorf("BestRoute(%d,%d) infeasible on a healthy fat-tree", a, b)
					}
					if _, _, _, ok := o.BestRoute(a, b, q); !ok {
						t.Errorf("repeat BestRoute(%d,%d) infeasible", a, b)
					}
					// headMu domain.
					_ = o.Headroom(servers[(seed+i)%len(servers)])
					_ = o.NearestByDist(a, servers)
				}
				// Every access pair: route-shard publishes while a switch
				// is dead, closed-form answers while the fabric is healthy.
				for i, a := range reps {
					for j, b := range reps {
						types, err := o.TypeTemplate(a, b)
						if err != nil || len(types) == 0 {
							continue
						}
						rate := 1 + float64(seed*len(reps)*len(reps)+i*len(reps)+j)/64
						q := netstate.RouteQuery{Rate: rate, UnitCost: 1, Stages: o.StagesForTemplate(types), Full: true}
						if _, _, _, ok := o.BestRoute(a, b, q); !ok {
							t.Errorf("BestRoute(%d,%d) rate %v infeasible", a, b, rate)
						}
					}
				}
			}(r)
		}
		wg.Wait()
	}

	// The topology must end in a fully revived, consistent state: two
	// quiescent reads agree.
	a, b := servers[0], servers[1]
	if d1, d2 := o.Dist(a, b), o.Dist(a, b); d1 != d2 {
		t.Errorf("quiescent Dist not stable: %d vs %d", d1, d2)
	}
	if !topo.AllAlive() {
		t.Fatal("hammer must end on a healthy fabric")
	}
	ref := netstate.NewUncached(topo)
	for _, a := range reps {
		for _, b := range reps {
			if a == b {
				continue
			}
			q := netstate.RouteQuery{Rate: math.Pi, UnitCost: 1, Stages: stagesFor(t, o, a, b), Full: true}
			o.BestRoute(a, b, q)
			q.Rate = math.Nextafter(math.Pi, 4)
			if !checkRoute(t, o, ref, a, b, q) {
				t.Errorf("BestRoute(%d,%d) after recovery: perturbed rate missed the closed form", a, b)
			}
		}
	}
}
