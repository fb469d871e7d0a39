// Algorithm 1's inner problem for one flow between two servers: pick one
// switch per stage of the pair's typed layered DAG, minimizing
// Σ rate × unit × hops (Eq. 2). BestRoute answers it in closed form where
// the guards below allow and otherwise runs the layered DP (solveStages)
// afresh. Nothing is memoized per pair: on a healthy Tree, Fat-Tree or
// VL2 fabric the closed form answers every full-stage query in O(tiers),
// and core's dirty-set loop does not re-solve a flow whose endpoints
// stayed put, so a per-pair memo would have nothing to reuse.
//
// # Closed-form routes
//
// On a healthy single-homed fabric — generator-built Tree, Fat-Tree or VL2,
// every server's one neighbour its access switch, no node dead — a full
// solve does not depend on the rate at all, and its route has a closed
// form: topology.StageRoute, the switches of the lowest-ID shortest path,
// in O(tiers) with nothing stored. That is the route solveStages returns
// at rate = unit cost = 1, where every segment cost and partial sum is an
// exact small integer: the DP keeps the first (lowest-ID) index at every
// tie, so walking back from the destination it picks, stage by stage, the
// lowest-ID switch adjacent to the next one that an all-one-hop prefix
// reaches — on these fabrics the lowest-ID shortest path
// (TestUnitRouteExhaustive pins this for every access pair). A flow's cost
// is c := rate × unit added len(stages)+1 times, left to right, which is
// the float DP's own sum along that route. The answer is bit-identical to
// a DP solve at the flow's own rate because of these guards:
//
//   - Both endpoints are single-homed servers, the stages have the types of
//     the pair's template, and no two adjacent stages share a switch type.
//     Adjacent switch sets are then disjoint, so every segment is at least
//     one hop.
//   - The closed-form route is all one-hop segments and costs exactly
//     len(stages)+1, so every optimal route, and every optimal prefix, is
//     all one-hop segments. Each such prefix costs c summed left to right,
//     the same bits for every one, so at a tie the float DP keeps the first
//     index, just as the integer DP does.
//   - c is a normal float far from overflow. Every other candidate is then
//     at least one whole hop (>= c) worse, which rounding cannot bridge.
//
// A query that fails a guard (filtered stages, a dead node, BCube's
// multi-homed servers, a tree of depth 4 or more whose template repeats
// the aggregation type, a subnormal or huge c) runs the DP at its own rate
// and unit cost: the arg-min route is mathematically rate-invariant, but
// float rounding of mathematically tied routes is not. PairRouteStats
// counts closed-form answers as hits and DP solves as misses.
package netstate

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/topology"
)

// RouteQuery parameterizes one layered-DAG solve: route a flow of the
// given rate from a source server to a destination server through one
// switch per stage, minimizing Σ rate × UnitCost × hops (Eq. 2).
type RouteQuery struct {
	// Rate is the flow's demand (f_i.rate).
	Rate float64
	// UnitCost is the cost model's per-unit-rate per-hop cost (c_s in
	// Eq. 2).
	UnitCost float64
	// Stages holds the candidate switches per required type, in stage
	// order. Callers pass the capacity-feasible subsets; both the outer
	// and inner slices are only read.
	Stages [][]topology.NodeID
	// Full declares that Stages is exactly the unfiltered per-type
	// candidate lists of the pair's template (StagesForTemplate output).
	// Only full-stage queries may be answered in closed form.
	Full bool
}

// BestRoute returns the minimum-cost switch choice per stage for a flow
// between two servers — Algorithm 1's layered DP — in closed form where
// the guards in the file comment allow, and by a fresh DP solve
// otherwise. The returned list must not be modified. closed reports
// which path answered; ok is false when no stage assignment yields a
// finite cost. An uncached oracle always runs the DP (the parity
// reference).
func (o *Oracle) BestRoute(src, dst topology.NodeID, q RouteQuery) (list []topology.NodeID, cost float64, closed, ok bool) {
	if len(q.Stages) == 0 {
		return nil, 0, false, false
	}
	if o.cached {
		if list, cost, ok = o.unitRoute(src, dst, &q); ok {
			o.routeHits++
			return list, cost, true, true
		}
		o.routeMisses++
	}
	list, cost, ok = o.solveStages(q.Rate, q.UnitCost, src, dst, q.Stages)
	return list, cost, false, ok
}

// Bounds on c = rate × unit for the closed-form path. The lower one is the
// smallest normal float64: below it c*d loses relative precision. The upper
// one keeps (len(stages)+1)·c far from overflow for any stage count a
// fabric can have.
const (
	minUnitScale = 0x1p-1022
	maxUnitScale = 0x1p1000
)

// unitRoute answers a full-stage query from topology.StageRoute (see the
// file comment), allocating only the returned list. ok=false sends the
// query to the DP: it is not a full-stage solve between two servers of a
// healthy single-homed fabric over the pair's template, or a guard failed.
func (o *Oracle) unitRoute(src, dst topology.NodeID, q *RouteQuery) (list []topology.NodeID, cost float64, ok bool) {
	c := q.Rate * q.UnitCost
	if !q.Full || !(c >= minUnitScale && c <= maxUnitScale) || !o.closedForm() {
		return nil, 0, false
	}
	tmpl, ok := o.topo.StageTemplate(src, dst)
	if !ok || len(tmpl) != len(q.Stages) {
		return nil, 0, false
	}
	for i, s := range q.Stages {
		if len(s) == 0 || o.topo.Node(s[0]).Type != tmpl[i] || (i > 0 && tmpl[i] == tmpl[i-1]) {
			return nil, 0, false
		}
	}
	if list, ok = o.topo.StageRoute(src, dst); !ok {
		return nil, 0, false
	}
	for range len(q.Stages) + 1 {
		cost += c
	}
	return list, cost, true
}

// PairRouteStats reports, since construction, how many BestRoute queries
// the closed form answered (hits) and how many ran the DP (misses).
func (o *Oracle) PairRouteStats() (hits, misses uint64) {
	return o.routeHits, o.routeMisses
}

// dpScratch holds one solve's DP buffers (two cost columns plus the
// back-pointer rows), pooled so the tens of thousands of per-wave solves on
// a big fabric do not allocate. Buffers are fully overwritten each solve
// and nothing pooled escapes into results.
type dpScratch struct {
	a, b []float64
	prev [][]int
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// solveStages runs the layered DP over the given stage lists. The
// arithmetic replicates flow.CostModel.SegmentCost term by term
// (rate × unit × hops, left-associated) so its result is bit-identical to
// the historical in-controller solve.
func (o *Oracle) solveStages(rate, unit float64, src, dst topology.NodeID, stages [][]topology.NodeID) ([]topology.NodeID, float64, bool) {
	// On a healthy structural topology the segment distances come from the
	// dense switch-pair table (two index loads) instead of per-pair
	// coordinate math — same integers, so identical floats (swdist.go).
	// src/dst are lifted onto their access switches once, up front.
	var tab *swDistTab
	var srcIdx, srcLift, dstIdx, dstLift int32
	if o.structuralOK() {
		if t := o.switchTable(); t.enabled() {
			tab = t
			srcIdx, srcLift = o.liftEndpoint(t, src)
			dstIdx, dstLift = o.liftEndpoint(t, dst)
		}
	}
	seg := func(a, b topology.NodeID) float64 {
		d := o.Dist(a, b)
		if d < 0 {
			panic(fmt.Sprintf("netstate: segment %d-%d disconnected", a, b))
		}
		return rate * unit * float64(d)
	}
	segSrc := func(w topology.NodeID) float64 {
		if tab != nil && srcIdx >= 0 {
			if wi := tab.idx[w]; wi >= 0 {
				return rate * unit * float64(srcLift+tab.dist[int(srcIdx)*tab.s+int(wi)])
			}
		}
		return seg(src, w)
	}
	segDst := func(w topology.NodeID) float64 {
		if tab != nil && dstIdx >= 0 {
			if wi := tab.idx[w]; wi >= 0 {
				return rate * unit * float64(dstLift+tab.dist[int(wi)*tab.s+int(dstIdx)])
			}
		}
		return seg(w, dst)
	}
	segMid := func(v, w topology.NodeID) float64 {
		if tab != nil {
			vi, wi := tab.idx[v], tab.idx[w]
			if vi >= 0 && wi >= 0 {
				return rate * unit * float64(tab.dist[int(vi)*tab.s+int(wi)])
			}
		}
		return seg(v, w)
	}
	inf := math.Inf(1)
	dp := dpPool.Get().(*dpScratch)
	defer dpPool.Put(dp)
	costTo := growFloats(dp.a, len(stages[0]))
	dp.a = costTo
	if cap(dp.prev) < len(stages) {
		dp.prev = make([][]int, len(stages))
	}
	prev := dp.prev[:len(stages)]
	for i, w := range stages[0] {
		costTo[i] = segSrc(w)
	}
	spare := dp.b
	for s := 1; s < len(stages); s++ {
		next := growFloats(spare, len(stages[s]))
		prev[s] = growInts(prev[s], len(stages[s]))
		for j, w := range stages[s] {
			best, bestK := inf, -1
			for k, v := range stages[s-1] {
				if math.IsInf(costTo[k], 1) {
					continue
				}
				cst := costTo[k] + segMid(v, w)
				if cst < best {
					best, bestK = cst, k
				}
			}
			next[j] = best
			prev[s][j] = bestK
		}
		costTo, spare = next, costTo
	}
	dp.a, dp.b = costTo, spare
	best, bestJ := inf, -1
	for j, w := range stages[len(stages)-1] {
		if math.IsInf(costTo[j], 1) {
			continue
		}
		cst := costTo[j] + segDst(w)
		if cst < best {
			best, bestJ = cst, j
		}
	}
	if bestJ < 0 {
		return nil, 0, false
	}
	list := make([]topology.NodeID, len(stages))
	j := bestJ
	for s := len(stages) - 1; s >= 0; s-- {
		list[s] = stages[s][j]
		if s > 0 {
			j = prev[s][j]
		}
	}
	return list, best, true
}
