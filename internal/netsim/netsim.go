// Package netsim is a flow-level (fluid) network simulator. It replaces the
// paper's Mininet/Open vSwitch testbed: given a set of shuffle transfers,
// each pinned to a concrete route by its network policy, it computes
// max-min fair bandwidth shares subject to link bandwidths and switch
// processing capacities, and advances a fluid simulation to obtain per-flow
// completion times, route lengths and route delays — the quantities Figures
// 6, 7 and 9 report.
//
// The simulator works on dense resource indices: every full-duplex link
// direction and every capacity-limited switch a run touches gets a small
// integer ID, and each transfer's walk is expanded once per run, via the
// netstate oracle's cached shortest paths, into a (resource, multiplicity)
// usage list. One resource index per run — the usage lists, each
// resource's arrived members in transfer order, the capacities, and
// per-resource counts that arrivals and completions keep current — serves
// every progressive-filling step. A step starts from those counts, touches
// only the resources its active transfers use, and refolds a resource's
// frozen-rate sum only after one of its members froze; every rate stays
// bit-identical to a from-scratch fill of the same active set (DESIGN.md
// §3.4). Capacities are read fresh at the start of every run, so
// bandwidth/capacity changes (failure injection) between runs are honored.
package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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

// resUse is one (resource, multiplicity) pair on a transfer's walk: a walk
// may cross the same link direction or switch more than once.
type resUse struct {
	res  int32
	mult int32
}

// member is one transfer's stake in a resource.
type member struct {
	idx  int32 // transfer index in the run
	mult int32
}

// Transfer states within a session.
const (
	idle     uint8 = iota // not admitted yet
	unfrozen              // active, rate still rising in the current call
	frozen                // active, rate fixed in the current call
	finished              // retired; never active again
)

// session is the resource index of one run. Resource IDs on the topology:
// link l traversed low→high node ID is 2l, high→low is 2l+1 (full duplex:
// each direction is its own resource with the link's full bandwidth, as on
// real Ethernet fabrics); capacity-limited switch s is 2·NumLinks+s. The
// session relabels the resources its walks touch densely in first-touch
// order and captures their capacities then, freezing them for the run.
type session struct {
	topo *topology.Topology
	slot []int32   // topology resource ID -> dense resource, -1 when untouched
	caps []float64 // dense resource -> capacity

	uses     []resUse // every transfer's uses, flat
	useOff   []int32  // transfer t's uses are uses[useOff[t]:useOff[t+1]]
	crossing []bool   // false for single-server walks

	// Resource r's members are members[memLo[r]:memHi[r]]: the admitted
	// transfers that use it, in transfer order, except the finished ones
	// that retire or a refold dropped. Its slots end where r+1's begin.
	members []member
	memLo   []int32
	memHi   []int32

	// Carried across calls, kept by admit and retire.
	base   []int32 // resource -> multiplicity of its active crossing members
	single []int32 // resource -> number of its active single-server members
	first  []int32 // resource -> index into uses of its first active use, -1 off res
	res    []int32 // resources with an active member, and any that lost it since the last call

	// Per-call state, allocated once per run.
	state []uint8   // transfer -> idle/unfrozen/frozen/finished
	rates []float64 // transfer -> rate, valid for the last call's transfers
	mult  []int32   // resource -> multiplicity of its unfrozen members
	used  []float64 // resource -> frozen members' rate sum, valid unless dirty
	dirty []bool
	order []int32 // the call's resources with unfrozen members, first-seen order
}

func (n *Network) newSession(transfers int) *session {
	topo := n.oracle.Topology()
	s := &session{
		topo:     topo,
		slot:     make([]int32, 2*topo.NumLinks()+topo.NumNodes()),
		useOff:   make([]int32, 1, transfers+1),
		crossing: make([]bool, 0, transfers),
	}
	for i := range s.slot {
		s.slot[i] = -1
	}
	return s
}

// add appends the next transfer's resource-usage list, converted from its
// expanded walk. The linear multiplicity scan is fine: walks are a handful
// of hops.
func (s *session) add(walk []topology.NodeID) error {
	start := len(s.uses)
	links := s.topo.Links()
	base := int32(2 * s.topo.NumLinks())
	for i := 1; i < len(walk); i++ {
		a, b := walk[i-1], walk[i]
		li, ok := s.topo.LinkIndex(a, b)
		if !ok {
			return fmt.Errorf("netsim: walk uses missing link %d-%d", a, b)
		}
		dir := int32(0)
		if a > b {
			dir = 1
		}
		s.use(start, int32(2*li)+dir, links[li].Bandwidth)
	}
	for _, nd := range walk {
		node := s.topo.Node(nd)
		if !node.IsSwitch() || math.IsInf(node.Capacity, 1) {
			continue
		}
		s.use(start, base+int32(nd), node.Capacity)
	}
	s.useOff = append(s.useOff, int32(len(s.uses)))
	s.crossing = append(s.crossing, len(walk) > 1)
	return nil
}

// use counts one crossing of topology resource id by the transfer whose
// uses begin at s.uses[start].
func (s *session) use(start int, id int32, capacity float64) {
	r := s.slot[id]
	if r < 0 {
		r = int32(len(s.caps))
		s.slot[id] = r
		s.caps = append(s.caps, capacity)
	}
	for i := start; i < len(s.uses); i++ {
		if s.uses[i].res == r {
			s.uses[i].mult++
			return
		}
	}
	s.uses = append(s.uses, resUse{res: r, mult: 1})
}

// index lays out the member-list slots and allocates the per-run state
// once every transfer has been added. Member lists start empty; admit
// fills them.
func (s *session) index() {
	nRes, nTr := len(s.caps), len(s.crossing)
	lo := make([]int32, nRes+1)
	for _, u := range s.uses {
		lo[u.res+1]++
	}
	for r := 0; r < nRes; r++ {
		lo[r+1] += lo[r]
	}
	s.memLo = lo[:nRes]
	s.memHi = append([]int32(nil), s.memLo...)
	s.members = make([]member, len(s.uses))
	s.base = make([]int32, nRes)
	s.single = make([]int32, nRes)
	s.first = make([]int32, nRes)
	for r := range s.first {
		s.first[r] = -1
	}
	s.res = make([]int32, 0, nRes)
	s.state = make([]uint8, nTr)
	s.rates = make([]float64, nTr)
	s.mult = make([]int32, nRes)
	s.used = make([]float64, nRes)
	s.dirty = make([]bool, nRes)
	s.order = make([]int32, 0, nRes)
}

// admit makes transfer t active: it joins each of its resources' member
// lists at its transfer-order position (an append when t is the largest
// index there) and their carried counts.
func (s *session) admit(t int32) {
	for i := s.useOff[t]; i < s.useOff[t+1]; i++ {
		u := s.uses[i]
		r, j := u.res, s.memHi[u.res]
		for ; j > s.memLo[r] && s.members[j-1].idx > t; j-- {
			s.members[j] = s.members[j-1]
		}
		s.members[j] = member{idx: t, mult: u.mult}
		s.memHi[r]++
		if s.first[r] < 0 {
			s.res = append(s.res, r)
			s.first[r] = i
		} else if i < s.first[r] || s.base[r] == 0 && s.single[r] == 0 {
			s.first[r] = i
		}
		if s.crossing[t] {
			s.base[r] += u.mult
		} else {
			s.single[r]++
		}
	}
}

// retire finishes transfer t and takes it out of its resources' carried
// counts. Where t was a resource's first active member, the finished
// members at the head of its list go, and first moves to the new head.
func (s *session) retire(t int32) {
	s.state[t] = finished
	for i := s.useOff[t]; i < s.useOff[t+1]; i++ {
		u := s.uses[i]
		r, lo := u.res, s.memLo[u.res]
		if s.crossing[t] {
			s.base[r] -= u.mult
		} else {
			s.single[r]--
		}
		for lo < s.memHi[r] && s.state[s.members[lo].idx] == finished {
			lo++
		}
		if lo == s.memLo[r] {
			continue // t was not r's first active member
		}
		if s.memLo[r] = lo; lo == s.memHi[r] {
			continue // no active member left; share drops r from res
		}
		j := s.useOff[s.members[lo].idx]
		for s.uses[j].res != r {
			j++
		}
		s.first[r] = j
	}
}

// share computes the max-min fair rates of the active transfers, the
// admitted and unretired ones, into s.rates via progressive filling.
// Single-server walks receive +Inf (local copies are not network-bound).
//
// Every rate is bit-identical to a from-scratch fill of the same active
// set (reference.FairShare): resources are visited in the active set's
// first-seen order, which is the order of their first active uses, and a
// resource's frozen-rate sum is refolded from zero in member order, never
// accumulated, after one of its members froze.
func (s *session) share(active []int32) {
	left := 0 // unfrozen transfers
	for _, t := range active {
		if s.crossing[t] {
			s.state[t] = unfrozen
			left++
		} else {
			s.state[t] = frozen
			s.rates[t] = math.Inf(1)
		}
	}
	// Drop the resources left without an active member and restore res's
	// order by first active use. Few entries moved since the last call, so
	// an insertion sort does little.
	k := 0
	for _, r := range s.res {
		if s.base[r] == 0 && s.single[r] == 0 {
			s.first[r] = -1
			continue
		}
		j := k
		for ; j > 0 && s.first[s.res[j-1]] > s.first[r]; j-- {
			s.res[j] = s.res[j-1]
		}
		s.res[j] = r
		k++
	}
	s.res = s.res[:k]
	s.order = append(s.order[:0], s.res...)
	for _, r := range s.order {
		// At the call's start only single-server members are frozen.
		s.mult[r], s.used[r], s.dirty[r] = s.base[r], 0, s.single[r] > 0
	}

	level := 0.0
	for {
		// Remaining headroom per resource that still has unfrozen members;
		// the others leave the visit order for good.
		bottleneck := math.Inf(1)
		live := s.order[:0]
		for _, r := range s.order {
			if s.mult[r] == 0 {
				continue
			}
			live = append(live, r)
			if s.dirty[r] {
				s.refold(r)
			}
			am := float64(s.mult[r])
			grow := (s.caps[r] - s.used[r] - level*am) / am
			if grow < bottleneck {
				bottleneck = grow
			}
		}
		s.order = live
		if len(live) == 0 {
			break
		}
		if bottleneck < 0 {
			bottleneck = 0
		}
		level += bottleneck
		// Freeze every unfrozen transfer on a saturated resource. A freeze
		// changes the sums of resources visited later in this same pass.
		progressed := false
		for _, r := range live {
			if s.mult[r] == 0 {
				continue
			}
			if s.dirty[r] {
				s.refold(r)
			}
			if s.used[r]+level*float64(s.mult[r]) >= s.caps[r]-1e-9 {
				mem := s.members[s.memLo[r]:s.memHi[r]]
				if int(s.mult[r]) >= left && s.sweep(mem, left, level) {
					return
				}
				for _, m := range mem {
					if s.state[m.idx] == unfrozen {
						s.freeze(m.idx, level)
						progressed = true
						left--
					}
				}
			}
		}
		if !progressed {
			// No resource saturates (all remaining transfers unconstrained —
			// possible only with infinite capacities). Give them +Inf and
			// stop.
			for _, t := range active {
				if s.state[t] == unfrozen {
					s.state[t] = frozen
					s.rates[t] = math.Inf(1)
				}
			}
			break
		}
	}
}

// sweep is the call's last freeze when the saturated resource with
// members mem holds all left unfrozen transfers: it fixes them at level
// and reports true, skipping the sum and multiplicity updates of freeze,
// which nothing reads once no transfer is unfrozen. It counts transfers:
// a multiplicity of at least left is necessary, not sufficient, since one
// transfer may cross a resource twice.
func (s *session) sweep(mem []member, left int, level float64) bool {
	k := 0
	for _, m := range mem {
		if s.state[m.idx] == unfrozen {
			k++
		}
	}
	if k < left {
		return false
	}
	for _, m := range mem {
		if s.state[m.idx] == unfrozen {
			s.state[m.idx] = frozen
			s.rates[m.idx] = level
		}
	}
	return true
}

// refold recomputes resource r's frozen-rate sum from zero in member order,
// dropping finished members, which never return.
func (s *session) refold(r int32) {
	used := 0.0
	k := s.memLo[r]
	for _, m := range s.members[s.memLo[r]:s.memHi[r]] {
		switch s.state[m.idx] {
		case finished:
			continue
		case frozen:
			used += s.rates[m.idx] * float64(m.mult)
		}
		s.members[k] = m
		k++
	}
	s.memHi[r] = k
	s.used[r] = used
	s.dirty[r] = false
}

// freeze fixes transfer t's rate at level and takes it out of the active
// multiplicity of every resource it uses.
func (s *session) freeze(t int32, level float64) {
	s.state[t] = frozen
	s.rates[t] = level
	for _, u := range s.uses[s.useOff[t]:s.useOff[t+1]] {
		s.mult[u.res] -= u.mult
		s.dirty[u.res] = true
	}
}

// FairShare computes the max-min fair rate of each transfer (all treated as
// simultaneously active) via progressive filling. Transfers whose route
// stays on one server (no links) receive +Inf. Rates are in data units per
// time unit.
func (n *Network) FairShare(transfers []*Transfer) ([]float64, error) {
	s := n.newSession(len(transfers))
	for _, tr := range transfers {
		walk, err := n.ExpandRoute(tr.Route)
		if err != nil {
			return nil, err
		}
		if err := s.add(walk); err != nil {
			return nil, err
		}
	}
	s.index()
	active := make([]int32, len(transfers))
	for i := range active {
		active[i] = int32(i)
		s.admit(active[i])
	}
	s.share(active)
	return s.rates, nil
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

// Simulate runs the fluid simulation to completion: at each step it computes
// the max-min fair shares of the transfers active at the current time,
// advances to the next completion or arrival, and repeats. Routes are
// expanded and resource-indexed once up front; each step reuses the index.
// It returns an error when any route is invalid or any transfer's bytes or
// start is negative or not finite. Transfers with zero bytes complete at
// their start instant.
func (n *Network) Simulate(transfers []*Transfer) (*Result, error) {
	s := n.newSession(len(transfers))
	res := &Result{Flows: make(map[flow.ID]*FlowStats, len(transfers))}
	flows := make([]FlowStats, len(transfers))
	remaining := make([]float64, len(transfers))
	for i, tr := range transfers {
		if _, dup := res.Flows[tr.ID]; dup {
			return nil, fmt.Errorf("netsim: duplicate transfer ID %d", tr.ID)
		}
		if math.IsNaN(tr.Bytes) || math.IsInf(tr.Bytes, 0) || math.IsNaN(tr.Start) || math.IsInf(tr.Start, 0) {
			return nil, fmt.Errorf("netsim: transfer %d has non-finite bytes/start", tr.ID)
		}
		if tr.Bytes < 0 || tr.Start < 0 {
			return nil, fmt.Errorf("netsim: transfer %d has negative bytes/start", tr.ID)
		}
		walk, err := n.ExpandRoute(tr.Route)
		if err != nil {
			return nil, err
		}
		if err := s.add(walk); err != nil {
			return nil, err
		}
		flows[i] = FlowStats{
			ID:               tr.ID,
			Bytes:            tr.Bytes,
			Hops:             len(walk) - 1,
			PropagationDelay: n.oracle.PathLatency(walk),
		}
		res.Flows[tr.ID] = &flows[i]
		res.TotalBytes += tr.Bytes
		remaining[i] = tr.Bytes
	}
	s.index()

	// Arrival queue: transfers by start, ties in transfer order. Starts only
	// grow along it, so the transfers arrived by any instant are a prefix.
	queue := make([]int32, len(transfers))
	for i := range queue {
		queue[i] = int32(i)
	}
	slices.SortStableFunc(queue, func(a, b int32) int {
		return cmp.Compare(transfers[a].Start, transfers[b].Start)
	})
	head := 0
	// The arrived, unfinished transfers.
	active := make([]int32, 0, len(transfers))

	now := 0.0
	for step := 0; ; step++ {
		if step > 4*len(transfers)+16 {
			return nil, fmt.Errorf("netsim: simulation did not converge after %d steps", step)
		}
		// Admit every transfer that starts by now+1e-12.
		for head < len(queue) && !(transfers[queue[head]].Start > now+1e-12) {
			s.admit(queue[head])
			active = append(active, queue[head])
			head++
		}
		if len(active) == 0 && head == len(queue) {
			break // nothing pending
		}
		// A transfer is done at the first step that sees it drained.
		k := 0
		for _, t := range active {
			if remaining[t] <= 1e-12 {
				st := &flows[t]
				st.Finish = now
				st.TransferTime = now - transfers[t].Start
				if now > res.Makespan {
					res.Makespan = now
				}
				s.retire(t)
				continue
			}
			active[k] = t
			k++
		}
		active = active[:k]
		nextArrival := math.Inf(1)
		if head < len(queue) {
			nextArrival = transfers[queue[head]].Start
		}
		if len(active) == 0 {
			if math.IsInf(nextArrival, 1) {
				break // only zero-byte stragglers, handled above
			}
			now = nextArrival
			continue
		}

		s.share(active)
		// Time to the next completion.
		dt := math.Inf(1)
		for _, t := range active {
			if s.rates[t] <= 0 {
				continue
			}
			d := remaining[t] / s.rates[t]
			if d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			return nil, fmt.Errorf("netsim: active transfers starved (all rates zero) at t=%v", now)
		}
		if nextArrival-now < dt {
			dt = nextArrival - now
		}
		for _, t := range active {
			if math.IsInf(s.rates[t], 1) {
				remaining[t] = 0
			} else {
				remaining[t] -= s.rates[t] * dt
			}
			if remaining[t] < 1e-12 {
				remaining[t] = 0
			}
		}
		now += dt
	}
	return res, nil
}
