package netstate_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/netstate"
	"repro/internal/topology"
)

// TestLockOrderHammer replays the reader waves of the former concurrent
// lock-order hammer on the single-owner oracle. The oracle holds no lock
// any more, so the waves run in turn on one goroutine, and every answer
// is checked against an uncached oracle instead of only for liveness.
//
// Each round flips a mid-tier switch's liveness, a different switch each
// time one dies, and then runs a wave of readers, round-robin by query so
// that entries one reader fills are read back by the next. The wave's
// first call finds the liveness version stale, so ensureLive drops every
// structure cache, and the readers refill the dist-row, path,
// type-template and stage caches it dropped. Every route query, and a
// repeat of it, must come from the closed form while the fabric is
// healthy and from the DP while the switch is dead. Every reader also
// sweeps every ordered pair of racks at its own rates. After the final
// recovery each pair must answer in closed form again, bit-identical to
// an uncached solve.
func TestLockOrderHammer(t *testing.T) {
	topo := buildFatTree(t)
	o := netstate.New(topo)
	ref := netstate.NewUncached(topo)
	servers := topo.Servers()
	if len(servers) < 4 {
		t.Fatal("fat-tree too small for the hammer test")
	}
	var mids []topology.NodeID
	for _, id := range topo.Switches() {
		if topo.Node(id).Tier > 0 {
			mids = append(mids, id)
		}
	}
	if len(mids) < 2 {
		t.Fatal("fewer than two non-access switches in the fat-tree")
	}

	const (
		rounds  = 8
		readers = 6
		queries = 10
	)
	pairs := rackPairs(topo)
	query := func(seed, i int) {
		t.Helper()
		a := servers[(seed+i)%len(servers)]
		b := servers[(seed+2*i+1)%len(servers)]
		if a == b {
			return
		}
		if row, want := o.DistRow(a), ref.DistRow(a); !slices.Equal(row, want) {
			t.Fatalf("DistRow(%d) = %v, uncached %v", a, row, want)
		}
		if d, want := o.Dist(a, b), ref.Dist(a, b); d != want {
			t.Fatalf("Dist(%d,%d) = %d, uncached %d", a, b, d, want)
		}
		if p, want := o.ShortestPath(a, b), ref.ShortestPath(a, b); !slices.Equal(p, want) {
			t.Fatalf("ShortestPath(%d,%d) = %v, uncached %v", a, b, p, want)
		}
		types, err := o.TypeTemplate(a, b)
		if err != nil {
			t.Fatalf("TypeTemplate(%d,%d): %v", a, b, err)
		}
		if want, _ := ref.TypeTemplate(a, b); !slices.Equal(types, want) {
			t.Fatalf("TypeTemplate(%d,%d) = %v, uncached %v", a, b, types, want)
		}
		stages := o.StagesForTemplate(types)
		if want := ref.StagesForTemplate(types); fmt.Sprint(stages) != fmt.Sprint(want) {
			t.Fatalf("StagesForTemplate(%v) = %v, uncached %v", types, stages, want)
		}
		q := netstate.RouteQuery{Rate: 1, UnitCost: 1, Stages: stages, Full: true}
		if _, _, _, ok := o.BestRoute(a, b, q); !ok {
			t.Fatalf("BestRoute(%d,%d) infeasible on a fat-tree with at most one dead switch", a, b)
		}
		if closed := checkRoute(t, o, ref, a, b, q); closed != topo.AllAlive() {
			t.Fatalf("repeat BestRoute(%d,%d): closed form %v with all alive %v", a, b, closed, topo.AllAlive())
		}
		if n, want := o.NearestByDist(a, servers), ref.NearestByDist(a, servers); n != want {
			t.Fatalf("NearestByDist(%d) = %d, uncached %d", a, n, want)
		}
	}
	for round := 0; round < rounds; round++ {
		// Even rounds kill the next mid-tier switch and odd rounds revive
		// it, so rows memoized while one switch was dead are stale when
		// the next one dies.
		if err := topo.SetNodeAlive(mids[round/2%len(mids)], round%2 != 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < queries; i++ {
			for r := 0; r < readers; r++ {
				query(r, i)
			}
		}
		// Every access pair: DP solves while a switch is dead, closed-form
		// answers while the fabric is healthy.
		for r := 0; r < readers; r++ {
			for k, pr := range pairs {
				types, err := o.TypeTemplate(pr[0], pr[1])
				if err != nil || len(types) == 0 {
					t.Fatalf("TypeTemplate(%d,%d) = %v, %v", pr[0], pr[1], types, err)
				}
				rate := 1 + float64(r*len(pairs)+k)/64
				checkRoute(t, o, ref, pr[0], pr[1], netstate.RouteQuery{
					Rate: rate, UnitCost: 1, Stages: o.StagesForTemplate(types), Full: true,
				})
			}
		}
	}

	if !topo.AllAlive() {
		t.Fatal("hammer must end on a healthy fabric")
	}
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		q := netstate.RouteQuery{Rate: math.Pi, UnitCost: 1, Stages: stagesFor(t, o, a, b), Full: true}
		o.BestRoute(a, b, q)
		q.Rate = math.Nextafter(math.Pi, 4)
		if !checkRoute(t, o, ref, a, b, q) {
			t.Errorf("BestRoute(%d,%d) after recovery: perturbed rate missed the closed form", a, b)
		}
	}
}
