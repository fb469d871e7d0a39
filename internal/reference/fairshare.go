package reference

import (
	"fmt"
	"math"

	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// Use is one (resource, multiplicity) pair on a walk: a walk may cross the
// same link direction or switch more than once. Resource IDs are
// netsim's: link l traversed low→high node ID is 2l, high→low is 2l+1, and
// capacity-limited switch s is 2·NumLinks+s.
type Use struct {
	Res  int32
	Mult int32
}

// member is one transfer's stake in a resource.
type member struct {
	idx  int32 // transfer index in the fill
	mult int32
}

// Capacities returns every resource's capacity by resource ID: a link
// direction's bandwidth, a switch's processing capacity.
func Capacities(topo *topology.Topology) []float64 {
	caps := make([]float64, 2*topo.NumLinks()+topo.NumNodes())
	for li, l := range topo.Links() {
		caps[2*li], caps[2*li+1] = l.Bandwidth, l.Bandwidth
	}
	base := 2 * topo.NumLinks()
	for _, w := range topo.Switches() {
		caps[base+int(w)] = topo.Node(w).Capacity
	}
	return caps
}

// Uses converts an expanded walk into its resource-usage list: every link
// direction it crosses, then every capacity-limited switch it visits.
func Uses(topo *topology.Topology, walk []topology.NodeID) ([]Use, error) {
	out := make([]Use, 0, 2*len(walk))
	add := func(id int32) {
		for i := range out {
			if out[i].Res == id {
				out[i].Mult++
				return
			}
		}
		out = append(out, Use{Res: id, Mult: 1})
	}
	base := int32(2 * topo.NumLinks())
	for i := 1; i < len(walk); i++ {
		a, b := walk[i-1], walk[i]
		li, ok := topo.LinkIndex(a, b)
		if !ok {
			return nil, fmt.Errorf("reference: walk uses missing link %d-%d", a, b)
		}
		dir := int32(0)
		if a > b {
			dir = 1
		}
		add(int32(2*li) + dir)
	}
	for _, nd := range walk {
		node := topo.Node(nd)
		if !node.IsSwitch() || math.IsInf(node.Capacity, 1) {
			continue
		}
		add(base + int32(nd))
	}
	return out, nil
}

// FairShare is netsim's progressive filling as it stood before any
// optimization: the max-min rates of one set of transfers, given each
// transfer's uses, whether it leaves its server, and the capacities by
// resource ID. Every faster fill must reproduce it bit for bit. Do not
// edit it to follow netsim.
func FairShare(caps []float64, uses [][]Use, crossing []bool) []float64 {
	// Dense per-step resource build: first-seen order, flat member slices.
	slot := make([]int32, len(caps))
	for i := range slot {
		slot[i] = -1
	}
	var resIDs []int32
	counts := make([]int32, 0, 64)
	for _, u := range uses {
		for _, e := range u {
			if slot[e.Res] == -1 {
				slot[e.Res] = int32(len(resIDs))
				resIDs = append(resIDs, e.Res)
				counts = append(counts, 0)
			}
			counts[slot[e.Res]]++
		}
	}
	offsets := []int32{0}
	total := int32(0)
	for _, c := range counts {
		total += c
		offsets = append(offsets, total)
	}
	members := make([]member, total)
	next := append([]int32(nil), offsets[:len(counts)]...)
	for ti, u := range uses {
		for _, e := range u {
			r := slot[e.Res]
			members[next[r]] = member{idx: int32(ti), mult: e.Mult}
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
		for r := range resIDs {
			used := 0.0
			activeMult := 0
			for _, m := range members[offsets[r]:offsets[r+1]] {
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
			grow := (caps[resIDs[r]] - used - level*float64(activeMult)) / float64(activeMult)
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
		for r := range resIDs {
			used := 0.0
			activeMult := 0
			lo, hi := offsets[r], offsets[r+1]
			for _, m := range members[lo:hi] {
				if frozen[m.idx] {
					used += rates[m.idx] * float64(m.mult)
				} else {
					activeMult += int(m.mult)
				}
			}
			if activeMult == 0 {
				continue
			}
			if used+level*float64(activeMult) >= caps[resIDs[r]]-1e-9 {
				for _, m := range members[lo:hi] {
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
	return rates
}

// Transfer is one data movement of a reference run, its route already
// expanded into a link walk.
type Transfer struct {
	ID    flow.ID
	Walk  []topology.NodeID
	Bytes float64
	Start float64
}

// FlowStats is one transfer's outcome, as netsim reports it.
type FlowStats struct {
	ID               flow.ID
	Finish           float64
	TransferTime     float64
	PropagationDelay float64
	Hops             int
	Bytes            float64
}

// Result is the outcome of a reference run.
type Result struct {
	Flows      map[flow.ID]*FlowStats
	Makespan   float64
	TotalBytes float64
}

// Simulate is netsim's fluid event loop as it stood before it became
// incremental, driving FairShare: the reference whole runs are pinned to.
// Capacities are read from o's topology when the run starts. Do not edit
// it to follow netsim.
func Simulate(o *netstate.Oracle, transfers []Transfer) (*Result, error) {
	topo := o.Topology()
	caps := Capacities(topo)
	res := &Result{Flows: make(map[flow.ID]*FlowStats, len(transfers))}
	type state struct {
		tr        *Transfer
		remaining float64
		uses      []Use
		crossing  bool
		done      bool
	}
	states := make([]*state, len(transfers))
	seen := make(map[flow.ID]bool, len(transfers))
	for i := range transfers {
		tr := &transfers[i]
		if seen[tr.ID] {
			return nil, fmt.Errorf("reference: duplicate transfer ID %d", tr.ID)
		}
		seen[tr.ID] = true
		if tr.Bytes < 0 || tr.Start < 0 {
			return nil, fmt.Errorf("reference: transfer %d has negative bytes/start", tr.ID)
		}
		uses, err := Uses(topo, tr.Walk)
		if err != nil {
			return nil, err
		}
		states[i] = &state{tr: tr, remaining: tr.Bytes, uses: uses, crossing: len(tr.Walk) > 1}
		res.Flows[tr.ID] = &FlowStats{
			ID:               tr.ID,
			Bytes:            tr.Bytes,
			Hops:             len(tr.Walk) - 1,
			PropagationDelay: o.PathLatency(tr.Walk),
		}
		res.TotalBytes += tr.Bytes
	}

	// Reusable active-set buffers.
	activeUses := make([][]Use, 0, len(states))
	activeCross := make([]bool, 0, len(states))
	activeStates := make([]*state, 0, len(states))

	now := 0.0
	for step := 0; ; step++ {
		if step > 4*len(transfers)+16 {
			return nil, fmt.Errorf("reference: simulation did not converge after %d steps", step)
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

		rates := FairShare(caps, activeUses, activeCross)
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
			return nil, fmt.Errorf("reference: active transfers starved (all rates zero) at t=%v", now)
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
