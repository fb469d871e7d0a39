package reference

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/topology"
)

// SwapUtility is Eq. 5/Eq. 7: the cost reduction from rescheduling position
// i of the policy to switch w, holding everything else fixed. Position 0 and
// len-1 use the source/destination containers' servers as the outer
// neighbors (Eq. 7); intermediate positions use the adjacent switches
// (Eq. 5). Positive utility means the swap reduces cost.
func SwapUtility(cm *flow.CostModel, f *flow.Flow, p *flow.Policy, i int, w topology.NodeID, loc flow.Locator) (float64, error) {
	if i < 0 || i >= len(p.List) {
		return 0, fmt.Errorf("flow %d: swap position %d out of range [0,%d)", f.ID, i, len(p.List))
	}
	var prev, next topology.NodeID
	if i == 0 {
		prev = loc.ServerOf(f.Src)
	} else {
		prev = p.List[i-1]
	}
	if i == len(p.List)-1 {
		next = loc.ServerOf(f.Dst)
	} else {
		next = p.List[i+1]
	}
	if prev == topology.None || next == topology.None {
		return 0, fmt.Errorf("flow %d: unplaced endpoint for swap at %d", f.ID, i)
	}
	old := cm.SegmentCost(f.Rate, prev, p.List[i]) + cm.SegmentCost(f.Rate, p.List[i], next)
	new_ := cm.SegmentCost(f.Rate, prev, w) + cm.SegmentCost(f.Rate, w, next)
	return old - new_, nil
}

// MoveUtility is Eq. 10: the cost reduction from moving container c (an
// endpoint of some of the given flows) from its current server to server s,
// holding policies fixed. Only the first/last route segment of each
// incident flow changes (Eq. 9 for maps; the symmetric expression for
// reduces). Flows in which c is not an endpoint contribute nothing.
func MoveUtility(cm *flow.CostModel, c cluster.ContainerID, s topology.NodeID, flows []*flow.Flow, policies map[flow.ID]*flow.Policy, loc flow.Locator) (float64, error) {
	cur := loc.ServerOf(c)
	if cur == topology.None {
		return 0, fmt.Errorf("flow: container %d unplaced", c)
	}
	var utility float64
	for _, f := range flows {
		p, ok := policies[f.ID]
		if !ok {
			return 0, fmt.Errorf("flow %d: no policy", f.ID)
		}
		switch {
		case f.Src == c && len(p.List) > 0:
			first := p.List[0]
			utility += cm.SegmentCost(f.Rate, cur, first) - cm.SegmentCost(f.Rate, s, first)
		case f.Dst == c && len(p.List) > 0:
			last := p.List[len(p.List)-1]
			utility += cm.SegmentCost(f.Rate, last, cur) - cm.SegmentCost(f.Rate, last, s)
		case (f.Src == c || f.Dst == c) && len(p.List) == 0:
			// Empty policy: cost is dist between the two endpoint servers.
			var other topology.NodeID
			if f.Src == c {
				other = loc.ServerOf(f.Dst)
			} else {
				other = loc.ServerOf(f.Src)
			}
			if other == topology.None {
				return 0, fmt.Errorf("flow %d: unplaced peer endpoint", f.ID)
			}
			utility += cm.SegmentCost(f.Rate, cur, other) - cm.SegmentCost(f.Rate, s, other)
		}
	}
	return utility, nil
}

// ApplySwap returns the policy with position i rescheduled to switch w
// (p.list[i] -> ŵ), leaving p as it was: policies are immutable. It fails
// if w's type differs from the required p.type[i], preserving policy
// satisfaction.
func ApplySwap(topo *topology.Topology, p *flow.Policy, i int, w topology.NodeID) (*flow.Policy, error) {
	if i < 0 || i >= len(p.List) {
		return nil, fmt.Errorf("flow %d: swap position %d out of range", p.Flow, i)
	}
	if !topo.Valid(w) || !topo.Node(w).IsSwitch() {
		return nil, fmt.Errorf("flow %d: swap target %d is not a switch", p.Flow, w)
	}
	if got := topo.Node(w).Type; got != p.Types[i] {
		return nil, fmt.Errorf("flow %d: swap target type %q, want %q", p.Flow, got, p.Types[i])
	}
	q := &flow.Policy{Flow: p.Flow, List: make([]topology.NodeID, len(p.List)), Types: p.Types}
	copy(q.List, p.List)
	q.List[i] = w
	return q, nil
}
