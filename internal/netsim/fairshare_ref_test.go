package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// refSession is the per-run state refFairShare and refSimulate use: the
// session as it stood before the resource index became run-wide. Resource
// IDs are the topology's (see session), and capacities are captured when a
// walk first touches a resource.
type refSession struct {
	topo *topology.Topology
	caps []float64 // resource ID -> capacity, valid where filled
	fill []bool

	// Per-step scratch, reset after every fairShare call.
	slot    []int32 // resource ID -> dense index this step, -1 when untouched
	resIDs  []int32 // touched resources in first-seen order
	offsets []int32 // prefix offsets into members, len(resIDs)+1
	members []member
}

func newRefSession(n *Network) *refSession {
	topo := n.oracle.Topology()
	nRes := 2*topo.NumLinks() + topo.NumNodes()
	s := &refSession{
		topo: topo,
		caps: make([]float64, nRes),
		fill: make([]bool, nRes),
		slot: make([]int32, nRes),
	}
	for i := range s.slot {
		s.slot[i] = -1
	}
	return s
}

// uses converts an expanded walk into its resource-usage list, registering
// capacities on first touch.
func (s *refSession) uses(walk []topology.NodeID) ([]resUse, error) {
	out := make([]resUse, 0, 2*len(walk))
	add := func(id int32, capacity float64) {
		for i := range out {
			if out[i].res == id {
				out[i].mult++
				return
			}
		}
		if !s.fill[id] {
			s.caps[id] = capacity
			s.fill[id] = true
		}
		out = append(out, resUse{res: id, mult: 1})
	}
	links := s.topo.Links()
	base := int32(2 * s.topo.NumLinks())
	for i := 1; i < len(walk); i++ {
		a, b := walk[i-1], walk[i]
		li, ok := s.topo.LinkIndex(a, b)
		if !ok {
			return nil, fmt.Errorf("netsim: walk uses missing link %d-%d", a, b)
		}
		dir := int32(0)
		if a > b {
			dir = 1
		}
		add(int32(2*li)+dir, links[li].Bandwidth)
	}
	for _, nd := range walk {
		node := s.topo.Node(nd)
		if !node.IsSwitch() || math.IsInf(node.Capacity, 1) {
			continue
		}
		add(base+int32(nd), node.Capacity)
	}
	return out, nil
}

// refFairShare is session.fairShare as it stood before any optimization:
// the reference every faster progressive filling must reproduce bit for
// bit. Do not edit it to follow session.share.
func refFairShare(s *refSession, uses [][]resUse, crossing []bool) []float64 {
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

// refSimulate is Network.Simulate as it stood before the event loop became
// incremental, driving refFairShare: the reference whole runs are pinned
// to. Do not edit it to follow Simulate.
func refSimulate(n *Network, transfers []*Transfer) (*Result, error) {
	sess := newRefSession(n)
	res := &Result{Flows: make(map[flow.ID]*FlowStats, len(transfers))}
	type state struct {
		tr        *Transfer
		remaining float64
		uses      []resUse
		crossing  bool
		done      bool
	}
	states := make([]*state, len(transfers))
	seen := make(map[flow.ID]bool, len(transfers))
	for i, tr := range transfers {
		if seen[tr.ID] {
			return nil, fmt.Errorf("netsim: duplicate transfer ID %d", tr.ID)
		}
		seen[tr.ID] = true
		if tr.Bytes < 0 || tr.Start < 0 {
			return nil, fmt.Errorf("netsim: transfer %d has negative bytes/start", tr.ID)
		}
		walk, err := n.ExpandRoute(tr.Route)
		if err != nil {
			return nil, err
		}
		uses, err := sess.uses(walk)
		if err != nil {
			return nil, err
		}
		states[i] = &state{tr: tr, remaining: tr.Bytes, uses: uses, crossing: len(walk) > 1}
		res.Flows[tr.ID] = &FlowStats{
			ID:               tr.ID,
			Bytes:            tr.Bytes,
			Hops:             len(walk) - 1,
			PropagationDelay: n.oracle.PathLatency(walk),
		}
		res.TotalBytes += tr.Bytes
	}

	// Reusable active-set buffers.
	activeUses := make([][]resUse, 0, len(states))
	activeCross := make([]bool, 0, len(states))
	activeStates := make([]*state, 0, len(states))

	now := 0.0
	for step := 0; ; step++ {
		if step > 4*len(transfers)+16 {
			return nil, fmt.Errorf("netsim: simulation did not converge after %d steps", step)
		}
		// Active set at `now`; also find the next arrival.
		activeUses = activeUses[:0]
		activeCross = activeCross[:0]
		activeStates = activeStates[:0]
		nextArrival := math.Inf(1)
		pendingWork := false
		for _, st := range states {
			if st.done {
				continue
			}
			pendingWork = true
			if st.tr.Start > now+1e-12 {
				if st.tr.Start < nextArrival {
					nextArrival = st.tr.Start
				}
				continue
			}
			if st.remaining <= 1e-12 {
				st.done = true
				res.Flows[st.tr.ID].Finish = now
				res.Flows[st.tr.ID].TransferTime = now - st.tr.Start
				if now > res.Makespan {
					res.Makespan = now
				}
				continue
			}
			activeUses = append(activeUses, st.uses)
			activeCross = append(activeCross, st.crossing)
			activeStates = append(activeStates, st)
		}
		if !pendingWork {
			break
		}
		if len(activeStates) == 0 {
			if math.IsInf(nextArrival, 1) {
				break // only zero-byte stragglers, handled above
			}
			now = nextArrival
			continue
		}

		rates := refFairShare(sess, activeUses, activeCross)
		// Time to the next completion.
		dt := math.Inf(1)
		for i, st := range activeStates {
			if rates[i] <= 0 {
				continue
			}
			t := st.remaining / rates[i]
			if t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			return nil, fmt.Errorf("netsim: active transfers starved (all rates zero) at t=%v", now)
		}
		if nextArrival-now < dt {
			dt = nextArrival - now
		}
		for i, st := range activeStates {
			if math.IsInf(rates[i], 1) {
				st.remaining = 0
			} else {
				st.remaining -= rates[i] * dt
			}
			if st.remaining < 1e-12 {
				st.remaining = 0
			}
		}
		now += dt
	}
	return res, nil
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
func pinUses(t *testing.T, n *Network, ref *refSession, trs []*Transfer) ([][]resUse, []bool) {
	t.Helper()
	uses := make([][]resUse, len(trs))
	crossing := make([]bool, len(trs))
	twice := false
	for i, tr := range trs {
		walk, err := n.ExpandRoute(tr.Route)
		if err != nil {
			t.Fatal(err)
		}
		crossing[i] = len(walk) > 1
		if uses[i], err = ref.uses(walk); err != nil {
			t.Fatal(err)
		}
		for _, u := range uses[i] {
			twice = twice || u.mult > 1
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
			ref := newRefSession(n)
			trs := pinTransfers(topo, rng, 40)
			uses, crossing := pinUses(t, n, ref, trs)
			for k := 0; k < 20; k++ {
				var sub []*Transfer
				var subUses [][]resUse
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
				sameRates(t, fmt.Sprintf("round %d set %d", round, k), got, refFairShare(ref, subUses, subCross))
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("no fair-share instances ran")
	}
}

// TestShareMaskedSubsetsPinnedToReference asks one run-wide index about a
// sequence of random active sets, retiring transfers between calls as
// Simulate does when they drain, and asserts every call's rates equal a
// from-scratch reference fill of the same set bit for bit.
func TestShareMaskedSubsetsPinnedToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	retired := 0
	for round := 0; round < 4; round++ {
		for _, topo := range pinFabrics(t, rng) {
			n := NewNetwork(netstate.New(topo))
			ref := newRefSession(n)
			trs := pinTransfers(topo, rng, 48)
			uses, crossing := pinUses(t, n, ref, trs)
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
			for k := 0; k < 24; k++ {
				var active []int32
				var subUses [][]resUse
				var subCross []bool
				for i := range trs {
					if s.state[i] != finished && rng.Intn(3) != 0 {
						active = append(active, int32(i))
						subUses = append(subUses, uses[i])
						subCross = append(subCross, crossing[i])
					}
				}
				s.share(active)
				got := make([]float64, len(active))
				for j, ti := range active {
					got[j] = s.rates[ti]
				}
				sameRates(t, fmt.Sprintf("round %d call %d", round, k), got, refFairShare(ref, subUses, subCross))
				for _, ti := range active {
					if rng.Intn(5) == 0 {
						s.state[ti] = finished
						retired++
					}
				}
			}
		}
	}
	if retired == 0 {
		t.Fatal("no transfer retired between calls")
	}
}

// TestShareVisitsActiveFirstSeenOrder pins an instance on which visiting
// resources in the run-wide index's first-seen order (Y, X, W, because of
// an inactive decoy) instead of the active set's (X, Y, W) changes a rate.
// Freezing t at X moves Y's used+level·mult by an ulp, which flips Y's
// saturation test and leaves b to rise another 1e-9.
func TestShareVisitsActiveFirstSeenOrder(t *testing.T) {
	const y, x, w = 0, 1, 2
	caps := []float64{y: 3.321007088437341, x: 1.2662278065642956, w: 0.7885514743087494}
	uses := [][]resUse{
		{{y, 1}, {x, 1}}, // decoy, never active
		{{x, 1}, {y, 1}}, // t
		{{w, 1}, {y, 1}}, // a
		{{y, 1}},         // b
	}
	s := &session{caps: caps, useOff: []int32{0}}
	for _, u := range uses {
		s.uses = append(s.uses, u...)
		s.useOff = append(s.useOff, int32(len(s.uses)))
		s.crossing = append(s.crossing, true)
	}
	s.index()
	active := []int32{1, 2, 3}
	s.share(active)

	want := refFairShare(&refSession{caps: caps, slot: []int32{-1, -1, -1}}, uses[1:], []bool{true, true, true})
	if math.Float64bits(want[2]) != math.Float64bits(1.266227807564296) {
		t.Fatalf("reference rate of b = %v, want 1.266227807564296; the instance no longer discriminates", want[2])
	}
	got := make([]float64, len(active))
	for j, ti := range active {
		got[j] = s.rates[ti]
	}
	sameRates(t, "visit order", got, want)
}

// TestSimulatePinnedToReference asserts whole Simulate runs are
// bit-identical to refSimulate, the event loop as it stood before it
// became incremental, driving the reference fair share.
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
			want, err := refSimulate(n, trs)
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
