package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/reference"
	"repro/internal/topology"
)

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
// switch twice; some stay on one server, a few stay on one switch (not
// network-bound, yet a member of a capped switch), some move zero bytes,
// and starts are staggered. Some starts tie an earlier transfer's
// exactly, and some fall 5e-13 after one, inside Simulate's 1e-12
// arrival slack.
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
		if rng.Intn(16) == 0 {
			route = []topology.NodeID{sw[rng.Intn(len(sw))]}
		}
		tr := &Transfer{ID: flow.ID(i), Route: route, Bytes: rng.Float64() * 8}
		if rng.Intn(6) == 0 {
			tr.Bytes = 0
		}
		if rng.Intn(3) == 0 {
			tr.Start = float64(rng.Intn(4)) * rng.Float64()
		}
		if i > 0 {
			switch rng.Intn(6) {
			case 0:
				tr.Start = out[rng.Intn(i)].Start
			case 1:
				tr.Start = out[rng.Intn(i)].Start + 5e-13
			}
		}
		out[i] = tr
	}
	return out
}

// pinUses expands every transfer's route and returns its reference usage
// list and whether it leaves its server.
func pinUses(t *testing.T, n *Network, trs []*Transfer) ([][]reference.Use, []bool) {
	t.Helper()
	uses := make([][]reference.Use, len(trs))
	crossing := make([]bool, len(trs))
	twice := false
	for i, tr := range trs {
		walk, err := n.ExpandRoute(tr.Route)
		if err != nil {
			t.Fatal(err)
		}
		crossing[i] = len(walk) > 1
		if uses[i], err = reference.Uses(n.oracle.Topology(), walk); err != nil {
			t.Fatal(err)
		}
		for _, u := range uses[i] {
			twice = twice || u.Mult > 1
		}
	}
	if !twice {
		t.Fatal("no walk crosses a resource twice; the instance misses that case")
	}
	return uses, crossing
}

// sameRates fails unless got[i] and want[i] have the same bits for every i.
func sameRates(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s transfer %d: rate %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestFairSharePinnedToReference asserts one-shot FairShare returns the
// reference's rates bit for bit on random transfer sets over tree and
// fat-tree routes.
func TestFairSharePinnedToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	calls := 0
	for round := 0; round < 6; round++ {
		for _, topo := range pinFabrics(t, rng) {
			n := NewNetwork(netstate.New(topo))
			caps := reference.Capacities(topo)
			trs := pinTransfers(topo, rng, 40)
			uses, crossing := pinUses(t, n, trs)
			for k := 0; k < 20; k++ {
				var sub []*Transfer
				var subUses [][]reference.Use
				var subCross []bool
				for i := range trs {
					if rng.Intn(3) != 0 {
						sub = append(sub, trs[i])
						subUses = append(subUses, uses[i])
						subCross = append(subCross, crossing[i])
					}
				}
				got, err := n.FairShare(sub)
				if err != nil {
					t.Fatal(err)
				}
				sameRates(t, fmt.Sprintf("round %d set %d", round, k), got, reference.FairShare(caps, subUses, subCross))
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("no fair-share instances ran")
	}
}

// callRates runs one fair-share call over active, which it shuffles
// first (rates must not depend on its order), and returns the rates in
// transfer order.
func callRates(s *session, rng *rand.Rand, active []int32) []float64 {
	sorted := slices.Clone(active)
	slices.Sort(sorted)
	rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
	s.share(active)
	got := make([]float64, len(sorted))
	for j, ti := range sorted {
		got[j] = s.rates[ti]
	}
	return got
}

// TestShareMaskedSubsetsPinnedToReference grows and shrinks one run-wide
// index's active set, admitting transfers in random order and retiring
// random active ones between calls, and asserts every call's rates equal a
// from-scratch reference fill of the same set bit for bit.
func TestShareMaskedSubsetsPinnedToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	retired, early := 0, 0
	for round := 0; round < 4; round++ {
		for _, topo := range pinFabrics(t, rng) {
			n := NewNetwork(netstate.New(topo))
			caps := reference.Capacities(topo)
			trs := pinTransfers(topo, rng, 48)
			uses, crossing := pinUses(t, n, trs)
			s := n.newSession(len(trs))
			for _, tr := range trs {
				walk, err := n.ExpandRoute(tr.Route)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.add(walk); err != nil {
					t.Fatal(err)
				}
			}
			s.index()
			arrivals := rng.Perm(len(trs))
			admitted := make([]bool, len(trs))
			for k := 0; k < 24; k++ {
				for j := rng.Intn(6); j > 0 && len(arrivals) > 0; j-- {
					ti := int32(arrivals[0])
					arrivals = arrivals[1:]
					if slices.Contains(admitted[ti:], true) {
						early++
					}
					s.admit(ti)
					admitted[ti] = true
				}
				var active []int32
				var subUses [][]reference.Use
				var subCross []bool
				for i := range trs {
					if admitted[i] && s.state[i] != finished {
						active = append(active, int32(i))
						subUses = append(subUses, uses[i])
						subCross = append(subCross, crossing[i])
					}
				}
				got := callRates(s, rng, active)
				sameRates(t, fmt.Sprintf("round %d call %d", round, k), got, reference.FairShare(caps, subUses, subCross))
				for _, ti := range active {
					if rng.Intn(5) == 0 {
						s.retire(ti)
						retired++
					}
				}
			}
		}
	}
	if retired == 0 || early == 0 {
		t.Fatalf("%d retirements and %d admissions before a larger index; the calls miss a case", retired, early)
	}
}

// handSession indexes hand-made uses, every transfer crossing, with no
// transfer admitted yet.
func handSession(caps []float64, uses [][]reference.Use) *session {
	s := &session{caps: caps, useOff: []int32{0}}
	for _, u := range uses {
		for _, e := range u {
			s.uses = append(s.uses, resUse{res: e.Res, mult: e.Mult})
		}
		s.useOff = append(s.useOff, int32(len(s.uses)))
		s.crossing = append(s.crossing, true)
	}
	s.index()
	return s
}

// visitOrderInstance is the instance of DESIGN.md §3.4 on which visiting
// resources Y, X, W (the first-seen order while the decoy is active)
// instead of X, Y, W (the order of t, a and b alone) changes b's rate.
// Freezing t at X moves Y's used+level·mult by an ulp, which flips Y's
// saturation test and leaves b to rise another 1e-9.
func visitOrderInstance(t *testing.T) (*session, []float64, [][]reference.Use) {
	t.Helper()
	const y, x, w = 0, 1, 2
	caps := []float64{y: 3.321007088437341, x: 1.2662278065642956, w: 0.7885514743087494}
	uses := [][]reference.Use{
		{{Res: y, Mult: 1}, {Res: x, Mult: 1}}, // decoy
		{{Res: x, Mult: 1}, {Res: y, Mult: 1}}, // t
		{{Res: w, Mult: 1}, {Res: y, Mult: 1}}, // a
		{{Res: y, Mult: 1}},                    // b
	}
	want := reference.FairShare(caps, uses[1:], []bool{true, true, true})
	if math.Float64bits(want[2]) != math.Float64bits(1.266227807564296) {
		t.Fatalf("reference rate of b = %v, want 1.266227807564296; the instance no longer discriminates", want[2])
	}
	return handSession(caps, uses), caps, uses
}

// TestShareVisitsActiveFirstSeenOrder pins the visit-order instance with
// t, a and b admitted and the decoy never admitted.
func TestShareVisitsActiveFirstSeenOrder(t *testing.T) {
	s, caps, uses := visitOrderInstance(t)
	for ti := int32(1); ti <= 3; ti++ {
		s.admit(ti)
	}
	rng := rand.New(rand.NewSource(1))
	sameRates(t, "visit order", callRates(s, rng, []int32{1, 2, 3}), reference.FairShare(caps, uses[1:], []bool{true, true, true}))
}

// TestShareRetireMovesFirst pins the visit-order instance with the decoy
// active for one call and then retired: retiring it must move Y's and X's
// first active uses to t's, or the next call visits Y before X.
func TestShareRetireMovesFirst(t *testing.T) {
	s, caps, uses := visitOrderInstance(t)
	for ti := int32(0); ti <= 3; ti++ {
		s.admit(ti)
	}
	rng := rand.New(rand.NewSource(1))
	sameRates(t, "with decoy", callRates(s, rng, []int32{0, 1, 2, 3}), reference.FairShare(caps, uses, []bool{true, true, true, true}))
	s.retire(0)
	sameRates(t, "decoy retired", callRates(s, rng, []int32{1, 2, 3}), reference.FairShare(caps, uses[1:], []bool{true, true, true}))
}

// TestShareFinalSweepCountsTransfers pins that a saturating resource's
// multiplicity only filters the final sweep: a crosses R twice, so R's
// multiplicity equals the count of unfrozen transfers when R saturates,
// yet b, on S alone, is still unfrozen and must keep rising.
func TestShareFinalSweepCountsTransfers(t *testing.T) {
	const r, q = 0, 1
	caps := []float64{r: 1, q: 10}
	uses := [][]reference.Use{
		{{Res: r, Mult: 2}}, // a
		{{Res: q, Mult: 1}}, // b
	}
	s := handSession(caps, uses)
	s.admit(0)
	s.admit(1)
	rng := rand.New(rand.NewSource(1))
	sameRates(t, "final sweep", callRates(s, rng, []int32{0, 1}), reference.FairShare(caps, uses, []bool{true, true}))
}

// TestSimulatePinnedToReference asserts whole Simulate runs are
// bit-identical to reference.Simulate, the event loop as it stood before
// it became incremental, driving the reference fair share.
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
			walks := make([]reference.Transfer, len(trs))
			for i, tr := range trs {
				walk, err := n.ExpandRoute(tr.Route)
				if err != nil {
					t.Fatal(err)
				}
				walks[i] = reference.Transfer{ID: tr.ID, Walk: walk, Bytes: tr.Bytes, Start: tr.Start}
			}
			want, err := reference.Simulate(n.Oracle(), walks)
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
