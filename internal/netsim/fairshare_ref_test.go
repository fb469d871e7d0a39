package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// refFairShare is session.fairShare as it stood before any optimization:
// the reference every faster progressive filling must reproduce bit for
// bit. Do not edit it to follow fairShare.
func refFairShare(s *session, uses [][]resUse, crossing []bool) []float64 {
	// Dense per-step resource build: first-seen order, flat member slices.
	s.resIDs = s.resIDs[:0]
	counts := make([]int32, 0, 64)
	for _, u := range uses {
		for _, e := range u {
			if s.slot[e.res] == -1 {
				s.slot[e.res] = int32(len(s.resIDs))
				s.resIDs = append(s.resIDs, e.res)
				counts = append(counts, 0)
			}
			counts[s.slot[e.res]]++
		}
	}
	s.offsets = append(s.offsets[:0], 0)
	total := int32(0)
	for _, c := range counts {
		total += c
		s.offsets = append(s.offsets, total)
	}
	if cap(s.members) < int(total) {
		s.members = make([]member, total)
	} else {
		s.members = s.members[:total]
	}
	next := append([]int32(nil), s.offsets[:len(counts)]...)
	for ti, u := range uses {
		for _, e := range u {
			r := s.slot[e.res]
			s.members[next[r]] = member{idx: int32(ti), mult: e.mult}
			next[r]++
		}
	}

	rates := make([]float64, len(uses))
	frozen := make([]bool, len(uses))
	for i := range uses {
		if !crossing[i] {
			rates[i] = math.Inf(1)
			frozen[i] = true
		}
	}

	level := 0.0
	for {
		// Remaining headroom per resource and active multiplicity.
		bottleneck := math.Inf(1)
		anyActive := false
		for r := range s.resIDs {
			used := 0.0
			activeMult := 0
			for _, m := range s.members[s.offsets[r]:s.offsets[r+1]] {
				if frozen[m.idx] {
					used += rates[m.idx] * float64(m.mult)
				} else {
					activeMult += int(m.mult)
				}
			}
			if activeMult == 0 {
				continue
			}
			anyActive = true
			grow := (s.caps[s.resIDs[r]] - used - level*float64(activeMult)) / float64(activeMult)
			if grow < bottleneck {
				bottleneck = grow
			}
		}
		if !anyActive {
			break
		}
		if bottleneck < 0 {
			bottleneck = 0
		}
		level += bottleneck
		// Freeze every unfrozen transfer on a saturated resource.
		progressed := false
		for r := range s.resIDs {
			used := 0.0
			activeMult := 0
			lo, hi := s.offsets[r], s.offsets[r+1]
			for _, m := range s.members[lo:hi] {
				if frozen[m.idx] {
					used += rates[m.idx] * float64(m.mult)
				} else {
					activeMult += int(m.mult)
				}
			}
			if activeMult == 0 {
				continue
			}
			if used+level*float64(activeMult) >= s.caps[s.resIDs[r]]-1e-9 {
				for _, m := range s.members[lo:hi] {
					if !frozen[m.idx] {
						frozen[m.idx] = true
						rates[m.idx] = level
						progressed = true
					}
				}
			}
		}
		if !progressed {
			// No resource saturates (all remaining transfers unconstrained —
			// possible only with infinite capacities). Give them the level and
			// stop.
			for i := range frozen {
				if !frozen[i] {
					frozen[i] = true
					rates[i] = math.Inf(1)
				}
			}
			break
		}
	}

	// Reset the per-step slot table for the next call.
	for _, id := range s.resIDs {
		s.slot[id] = -1
	}
	return rates
}

// pinFabrics builds the fabrics the pinning tests draw routes on: a tree
// and a k=4 fat-tree whose link bandwidths and switch capacities are
// scrambled per seed, with clusters of values a fraction of the 1e-9
// saturation slack apart so several resources saturate in one step.
func pinFabrics(t *testing.T, rng *rand.Rand) []*topology.Topology {
	t.Helper()
	p := topology.LinkParams{Bandwidth: 1, Latency: 0.1, SwitchCapacity: 4}
	tree, err := topology.NewTree(3, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := topology.NewFatTree(4, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*topology.Topology{tree, fat} {
		near := func() float64 { return 1 + float64(rng.Intn(4))*3e-10 }
		for _, l := range topo.Links() {
			bw := near()
			if rng.Intn(3) == 0 {
				bw = 0.25 + rng.Float64()*2
			}
			if err := topo.SetLinkBandwidth(l.A, l.B, bw); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range topo.Switches() {
			capacity := topology.InfiniteCapacity
			switch rng.Intn(3) {
			case 0:
				capacity = 2 * near()
			case 1:
				capacity = 0.5 + rng.Float64()*3
			}
			if err := topo.SetSwitchCapacity(w, capacity); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []*topology.Topology{tree, fat}
}

// pinTransfers draws transfers whose policy-level routes pass through
// random switches, so expanded walks detour and can cross a link or a
// switch twice; some stay on one server, some move zero bytes, and starts
// are staggered.
func pinTransfers(topo *topology.Topology, rng *rand.Rand, n int) []*Transfer {
	srv, sw := topo.Servers(), topo.Switches()
	out := make([]*Transfer, n)
	for i := range out {
		a, b := srv[rng.Intn(len(srv))], srv[rng.Intn(len(srv))]
		route := []topology.NodeID{a}
		switch k := rng.Intn(8); {
		case k == 0:
			b = a // same-server transfer
		case k < 4:
			for j := rng.Intn(3); j >= 0; j-- {
				route = append(route, sw[rng.Intn(len(sw))])
			}
		}
		route = append(route, b)
		tr := &Transfer{ID: flow.ID(i), Route: route, Bytes: rng.Float64() * 8}
		if rng.Intn(6) == 0 {
			tr.Bytes = 0
		}
		if rng.Intn(3) == 0 {
			tr.Start = float64(rng.Intn(4)) * rng.Float64()
		}
		out[i] = tr
	}
	return out
}

// TestFairSharePinnedToReference asserts fairShare returns the reference's
// rates bit for bit on random active sets over tree and fat-tree routes.
func TestFairSharePinnedToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	calls := 0
	for round := 0; round < 6; round++ {
		for _, topo := range pinFabrics(t, rng) {
			n := NewNetwork(netstate.New(topo))
			s := n.newSession()
			trs := pinTransfers(topo, rng, 40)
			uses := make([][]resUse, len(trs))
			crossing := make([]bool, len(trs))
			twice := false
			for i, tr := range trs {
				walk, err := n.ExpandRoute(tr.Route)
				if err != nil {
					t.Fatal(err)
				}
				crossing[i] = len(walk) > 1
				if uses[i], err = s.uses(walk); err != nil {
					t.Fatal(err)
				}
				for _, u := range uses[i] {
					twice = twice || u.mult > 1
				}
			}
			if !twice {
				t.Fatal("no walk crosses a resource twice; the instance misses that case")
			}
			for k := 0; k < 20; k++ {
				var subUses [][]resUse
				var subCross []bool
				for i := range uses {
					if rng.Intn(3) != 0 {
						subUses = append(subUses, uses[i])
						subCross = append(subCross, crossing[i])
					}
				}
				got := s.fairShare(subUses, subCross)
				want := refFairShare(s, subUses, subCross)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("round %d set %d transfer %d: rate %v, reference %v", round, k, i, got[i], want[i])
					}
				}
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("no fair-share instances ran")
	}
}

// TestSimulatePinnedToReference asserts whole Simulate runs are
// bit-identical to runs driven by the reference fair share.
func TestSimulatePinnedToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 4; round++ {
		for _, topo := range pinFabrics(t, rng) {
			n := NewNetwork(netstate.New(topo))
			trs := pinTransfers(topo, rng, 48)
			got, err := n.Simulate(trs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := n.simulate(trs, refFairShare)
			if err != nil {
				t.Fatal(err)
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(got.Makespan, want.Makespan) || !same(got.TotalBytes, want.TotalBytes) {
				t.Fatalf("round %d: makespan/bytes %v/%v, reference %v/%v",
					round, got.Makespan, got.TotalBytes, want.Makespan, want.TotalBytes)
			}
			for _, tr := range trs {
				g, w := got.Flows[tr.ID], want.Flows[tr.ID]
				if !same(g.Finish, w.Finish) || !same(g.TransferTime, w.TransferTime) ||
					!same(g.PropagationDelay, w.PropagationDelay) || g.Hops != w.Hops || !same(g.Bytes, w.Bytes) {
					t.Fatalf("round %d transfer %d: %+v, reference %+v", round, tr.ID, *g, *w)
				}
			}
		}
	}
}
