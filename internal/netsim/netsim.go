// Package netsim is a flow-level (fluid) network simulator. It replaces the
// paper's Mininet/Open vSwitch testbed: given a set of shuffle transfers,
// each pinned to a concrete route by its network policy, it computes
// max-min fair bandwidth shares subject to link bandwidths and switch
// processing capacities, and advances a fluid simulation to obtain per-flow
// completion times, average shuffle delay and aggregate throughput — the
// quantities Figures 6, 7 and 9 report.
//
// The simulator works on dense resource indices: every full-duplex link
// direction and every capacity-limited switch gets a small integer ID, each
// transfer's walk is expanded once per run into a (resource, multiplicity)
// usage list via the netstate oracle's cached shortest paths, and each
// progressive-filling step rebuilds only flat index slices — no maps, no
// per-step route re-expansion. Capacities are read fresh at the start of
// every run, so bandwidth/capacity changes (failure injection) between runs
// are honored.
package netsim

import (
	"fmt"
	"math"

	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// Transfer is one data movement over a fixed route.
type Transfer struct {
	ID flow.ID
	// Route is the full node walk (server, switches..., server). Consecutive
	// nodes need not be adjacent; ExpandRoute inserts shortest sub-paths.
	Route []topology.NodeID
	// Bytes to move, in data units (GB).
	Bytes float64
	// Start time; transfers become active at this instant.
	Start float64
}

// Network is a simulator bound to a netstate oracle: route expansion reuses
// the oracle's cached shortest paths, and resource tables are dense arrays
// sized by the topology. A Network is cheap to build and may be reused
// across Simulate runs; it is not safe for concurrent use.
type Network struct {
	oracle *netstate.Oracle
}

// NewNetwork builds a simulator over an oracle (typically the controller's,
// so path caches are shared with scheduling).
func NewNetwork(o *netstate.Oracle) *Network { return &Network{oracle: o} }

// Oracle returns the underlying path/cost oracle.
func (n *Network) Oracle() *netstate.Oracle { return n.oracle }

// ExpandRoute turns a policy-level route (whose consecutive elements may be
// several hops apart after switch rescheduling) into a concrete link walk by
// splicing shortest paths between consecutive elements.
func (n *Network) ExpandRoute(route []topology.NodeID) ([]topology.NodeID, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("netsim: empty route")
	}
	walk, err := n.oracle.ExpandRoute(route)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	return walk, nil
}

// ExpandRoute is the topology-level variant of Network.ExpandRoute for
// callers without an oracle at hand. It routes through a throwaway
// uncached oracle so netstate stays the only package that runs BFS;
// callers on a hot path should hold a memoizing oracle and use it
// directly.
func ExpandRoute(topo *topology.Topology, route []topology.NodeID) ([]topology.NodeID, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("netsim: empty route")
	}
	walk, err := netstate.NewUncached(topo).ExpandRoute(route)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	return walk, nil
}

// resUse is one (resource, multiplicity) pair on a transfer's walk: a walk
// may cross the same link direction or switch more than once.
type resUse struct {
	res  int32
	mult int32
}

// member is one transfer's stake in a resource during a fair-share step.
type member struct {
	idx  int32 // index into the active-transfer slice
	mult int32
}

// session holds the dense resource tables of one simulation run. Resource
// IDs: link l traversed low→high node ID is 2l, high→low is 2l+1 (full
// duplex: each direction is its own resource with the link's full bandwidth,
// as on real Ethernet fabrics); capacity-limited switch s is 2·NumLinks+s.
// Capacities are captured from the topology when a walk first touches a
// resource, freezing them for the run.
type session struct {
	topo *topology.Topology
	caps []float64 // resource ID -> capacity, valid where filled
	fill []bool

	// Per-step scratch, reset after every fairShare call.
	slot    []int32 // resource ID -> dense index this step, -1 when untouched
	resIDs  []int32 // touched resources in first-seen order
	offsets []int32 // prefix offsets into members, len(resIDs)+1
	members []member
}

func (n *Network) newSession() *session {
	topo := n.oracle.Topology()
	nRes := 2*topo.NumLinks() + topo.NumNodes()
	s := &session{
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
// capacities on first touch. The linear multiplicity scan is fine: walks are
// a handful of hops.
func (s *session) uses(walk []topology.NodeID) ([]resUse, error) {
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

// fairShare computes max-min fair rates for the given usage lists via
// progressive filling. crossing[i] is false for single-server walks, which
// receive +Inf (local copies are not network-bound).
func (s *session) fairShare(uses [][]resUse, crossing []bool) []float64 {
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

// FairShare computes the max-min fair rate of each transfer (all treated as
// simultaneously active) via progressive filling. Transfers whose route
// stays on one server (no links) receive +Inf. Rates are in data units per
// time unit.
func (n *Network) FairShare(transfers []*Transfer) ([]float64, error) {
	s := n.newSession()
	uses := make([][]resUse, len(transfers))
	crossing := make([]bool, len(transfers))
	for i, tr := range transfers {
		walk, err := n.ExpandRoute(tr.Route)
		if err != nil {
			return nil, err
		}
		crossing[i] = len(walk) > 1
		if uses[i], err = s.uses(walk); err != nil {
			return nil, err
		}
	}
	return s.fairShare(uses, crossing), nil
}

// FairShare is the topology-level variant of Network.FairShare for callers
// without an oracle at hand.
func FairShare(topo *topology.Topology, transfers []*Transfer) ([]float64, error) {
	return NewNetwork(netstate.New(topo)).FairShare(transfers)
}

// FlowStats summarizes one transfer's outcome.
type FlowStats struct {
	ID flow.ID
	// Finish is the completion timestamp.
	Finish float64
	// TransferTime is Finish - Start (the bandwidth-bound component).
	TransferTime float64
	// PropagationDelay is the route latency in T units (switch traversals +
	// link latencies) — the per-packet delay component Figure 7(b) averages.
	PropagationDelay float64
	// Hops is the number of links on the concrete walk (Figure 7(a)).
	Hops int
	// Bytes moved.
	Bytes float64
}

// Result is the outcome of a Simulate run.
type Result struct {
	Flows map[flow.ID]*FlowStats
	// Makespan is the time the last transfer finishes.
	Makespan float64
	// TotalBytes across all transfers.
	TotalBytes float64
}

// Throughput returns TotalBytes / Makespan (0 when degenerate).
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.TotalBytes / r.Makespan
}

// AvgTransferTime averages the bandwidth-bound transfer times.
func (r *Result) AvgTransferTime() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Flows {
		sum += f.TransferTime
	}
	return sum / float64(len(r.Flows))
}

// AvgPropagationDelay averages per-flow route latencies (Figure 7(b)).
func (r *Result) AvgPropagationDelay() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Flows {
		sum += f.PropagationDelay
	}
	return sum / float64(len(r.Flows))
}

// AvgHops averages route lengths (Figure 7(a)).
func (r *Result) AvgHops() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Flows {
		sum += float64(f.Hops)
	}
	return sum / float64(len(r.Flows))
}

// Simulate runs the fluid simulation to completion: at each step it computes
// the max-min fair shares of the transfers active at the current time,
// advances to the next completion or arrival, and repeats. Routes are
// expanded and resource-indexed once up front; each step reuses the walks.
// It returns an error when any route is invalid. Transfers with zero bytes
// complete at their start instant.
func (n *Network) Simulate(transfers []*Transfer) (*Result, error) {
	return n.simulate(transfers, (*session).fairShare)
}

// simulate is Simulate with the progressive-filling routine passed in, so
// tests can pin whole runs against a reference fair share.
func (n *Network) simulate(transfers []*Transfer, share func(*session, [][]resUse, []bool) []float64) (*Result, error) {
	sess := n.newSession()
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

		rates := share(sess, activeUses, activeCross)
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

// Simulate is the topology-level variant of Network.Simulate for callers
// without an oracle at hand.
func Simulate(topo *topology.Topology, transfers []*Transfer) (*Result, error) {
	return NewNetwork(netstate.New(topo)).Simulate(transfers)
}
