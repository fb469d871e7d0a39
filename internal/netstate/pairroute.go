// Server-pair route/cost cache: the memoized form of Algorithm 1's inner
// problem. Every shuffle flow between the same pair of servers solves the
// same typed layered-DAG route problem, so the solve is keyed by the
// ordered (src server, dst server) pair and shared across flows — the
// coflow observation (flows sharing endpoints share network decisions)
// turned into a cache.
//
// # Validity contract
//
// The paper's segment cost (Eq. 2) is rate × hop-distance: switch LOAD
// never enters the objective, it only gates which switches are
// capacity-feasible. That splits cached solves into two classes:
//
//   - Full solves (every candidate switch of every required type was
//     feasible): the DP input is purely structure-derived (stage lists and
//     hop distances are immutable after Build), so the entry survives
//     every parameter epoch bump. Node LIVENESS changes are the one
//     structural mutation that can invalidate it: the oracle's ensureLive
//     hook calls clearPairRoutes whenever the topology's liveness version
//     moves, so no cached route can ever name a dead switch.
//   - Filtered solves (capacity excluded at least one switch): the entry
//     records the exact stage lists it solved over and is reused only when
//     the caller presents bit-identical lists again. The entry's Epoch tag
//     records when it was solved, for observability; equality of the stage
//     lists — a strictly stronger condition than epoch equality — is what
//     gates reuse.
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
// a rate-keyed solve because of these guards:
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
// the aggregation type, a subnormal or huge c) takes the rate-keyed path.
// Closed-form answers count as hits in PairRouteStats.
//
// Everywhere else rate and unit cost are part of the key (by Float64bits):
// the arg-min route is mathematically rate-invariant, but float rounding of
// mathematically tied routes is not, and cached results must be
// bit-identical to a fresh solve.
//
// Storage follows the oracle's atomic-pointer pattern: a dense
// (server × server) table of atomic pointers for small clusters, sharded
// RWMutex maps above denseRouteLimit entries. Entries are immutable after
// publication, so concurrent readers are safe alongside a writer.
package netstate

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/topology"
)

// RouteQuery parameterizes one layered-DAG solve: route a flow of the
// given rate from a source server to a destination server through one
// switch per stage, minimizing Σ rate × UnitCost × hops (Eq. 2).
type RouteQuery struct {
	// Rate is the flow's demand (f_i.rate); part of the cache key on the
	// rate-keyed path.
	Rate float64
	// UnitCost is the cost model's per-unit-rate per-hop cost (c_s in
	// Eq. 2); part of the cache key on the rate-keyed path.
	UnitCost float64
	// Stages holds the candidate switches per required type, in stage
	// order. Callers pass the capacity-feasible subsets; both the outer
	// and inner slices are only read.
	Stages [][]topology.NodeID
	// Full declares that Stages is exactly the unfiltered per-type
	// candidate lists of the pair's template (StagesForTemplate output).
	// Full solves are answered in closed form where the guards allow and
	// otherwise cache without any revalidation; non-full solves revalidate
	// by stage-list equality.
	Full bool
}

// PairRoute is one memoized solve. Entries are immutable once published;
// callers must not modify any field.
type PairRoute struct {
	// RateBits and UnitBits key the entry by the exact float bit patterns
	// of the query's Rate and UnitCost.
	RateBits, UnitBits uint64
	// Full marks a solve over unfiltered stages (never invalidated).
	Full bool
	// Stages are the exact filtered stage lists a non-full solve used;
	// nil when Full.
	Stages [][]topology.NodeID
	// List is the chosen switch per stage (shared; do not modify).
	List []topology.NodeID
	// Cost is the DP objective of the solve.
	Cost float64
	// Epoch records the oracle epoch at solve time (observability only;
	// reuse is gated by the stage-list contract above, not by Epoch).
	Epoch uint64
}

const (
	// denseRouteLimit bounds the dense (server × server) table: above this
	// many pair slots the cache switches to sharded maps. 216-server
	// sweeps stay dense; the 512-server evaluation fabrics go sharded.
	denseRouteLimit = 1 << 17
	// routeShardCount is the number of lock-striped map shards.
	routeShardCount = 32
)

// routeShard is one lock stripe of the sharded pair-route map. The m
// field is under taalint's atomicguard stripe rule: every access must be
// preceded by a Lock/RLock on the same variable in the enclosing function
// (or the function named *Locked, or the shard slice still function-local).
type routeShard struct {
	mu sync.RWMutex
	m  map[pairKey]*PairRoute
}

func (sh *routeShard) load(k pairKey) *PairRoute {
	sh.mu.RLock()
	e := sh.m[k]
	sh.mu.RUnlock()
	return e
}

func (sh *routeShard) store(k pairKey, e *PairRoute) {
	sh.mu.Lock()
	sh.m[k] = e
	sh.mu.Unlock()
}

func (sh *routeShard) reset() {
	sh.mu.Lock()
	sh.m = make(map[pairKey]*PairRoute)
	sh.mu.Unlock()
}

// routeInit lazily builds the pair-route storage: dense table when the
// server count allows, shard maps always, as the fallback for non-server
// endpoints.
func (o *Oracle) routeInit() {
	o.routeOnce.Do(func() {
		servers := o.topo.Servers()
		idx := make([]int32, o.topo.NumNodes())
		for i := range idx {
			idx[i] = -1
		}
		for i, s := range servers {
			idx[s] = int32(i)
		}
		o.routeServerIdx = idx
		o.routeNumServers = len(servers)
		if n := len(servers) * len(servers); n > 0 && n <= denseRouteLimit {
			o.routeDense = make([]atomic.Pointer[PairRoute], n)
		}
		routes := make([]routeShard, routeShardCount)
		for i := range routes {
			routes[i].m = make(map[pairKey]*PairRoute)
		}
		o.routeShards = routes
	})
}

func routeShardOf(src, dst topology.NodeID) int {
	h := uint64(src)*0x9e3779b97f4a7c15 + uint64(dst)
	h ^= h >> 29
	return int(h % routeShardCount)
}

// clearPairRoutes drops every memoized pair solve. Called by ensureLive
// when node liveness changes: stage lists and hop distances both shift, so
// no entry — full or filtered — remains valid. A no-op before routeInit.
func (o *Oracle) clearPairRoutes() {
	for i := range o.routeDense {
		o.routeDense[i].Store(nil)
	}
	for i := range o.routeShards {
		o.routeShards[i].reset()
	}
}

func (o *Oracle) routeLoad(src, dst topology.NodeID) *PairRoute {
	if o.routeDense != nil {
		si, di := o.routeServerIdx[src], o.routeServerIdx[dst]
		if si >= 0 && di >= 0 {
			return o.routeDense[int(si)*o.routeNumServers+int(di)].Load()
		}
	}
	return o.routeShards[routeShardOf(src, dst)].load(pairKey{src, dst})
}

func (o *Oracle) routeStore(src, dst topology.NodeID, e *PairRoute) {
	if o.routeDense != nil {
		si, di := o.routeServerIdx[src], o.routeServerIdx[dst]
		if si >= 0 && di >= 0 {
			o.routeDense[int(si)*o.routeNumServers+int(di)].Store(e)
			return
		}
	}
	o.routeShards[routeShardOf(src, dst)].store(pairKey{src, dst}, e)
}

// matches reports whether a cached entry answers the query under the
// validity contract: exact rate/unit bits, and either both sides are full
// solves or the filtered stage lists are bit-identical.
func (e *PairRoute) matches(q *RouteQuery, rateBits, unitBits uint64) bool {
	if e.RateBits != rateBits || e.UnitBits != unitBits || e.Full != q.Full {
		return false
	}
	if e.Full {
		return true
	}
	return stagesEqual(e.Stages, q.Stages)
}

func stagesEqual(a, b [][]topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// BestRoute returns the minimum-cost switch choice per stage for a flow
// between two servers — Algorithm 1's layered DP — in closed form or
// memoized per ordered server pair under the validity contract in the
// package comment. The returned list is shared; callers must not modify
// it. ok is false when no stage assignment yields a finite cost. On an
// uncached oracle every call solves fresh (the parity reference).
func (o *Oracle) BestRoute(src, dst topology.NodeID, q RouteQuery) (list []topology.NodeID, cost float64, cacheHit, ok bool) {
	if len(q.Stages) == 0 {
		return nil, 0, false, false
	}
	rateBits := math.Float64bits(q.Rate)
	unitBits := math.Float64bits(q.UnitCost)
	if o.cached {
		o.ensureLive()
		st := &o.routeStats[int(src)&(routeStatStripes-1)]
		if ul, uc, uok := o.unitRoute(src, dst, &q); uok {
			st.hits.Add(1)
			return ul, uc, true, true
		}
		o.routeInit()
		if e := o.routeLoad(src, dst); e != nil && e.matches(&q, rateBits, unitBits) {
			st.hits.Add(1)
			return e.List, e.Cost, true, true
		}
		st.misses.Add(1)
	}
	list, cost, ok = o.solveStages(q.Rate, q.UnitCost, src, dst, q.Stages)
	if !ok || !o.cached {
		return list, cost, false, ok
	}
	e := &PairRoute{RateBits: rateBits, UnitBits: unitBits, Full: q.Full, List: list, Cost: cost, Epoch: o.Epoch()}
	if !q.Full {
		e.Stages = make([][]topology.NodeID, len(q.Stages))
		for i, s := range q.Stages {
			e.Stages[i] = append([]topology.NodeID(nil), s...)
		}
	}
	o.routeStore(src, dst, e)
	return list, cost, false, true
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
// package comment), allocating only the returned list. ok=false sends the
// query to the rate-keyed path: it is not a full-stage solve between two
// servers of a healthy single-homed fabric over the pair's template, or a
// guard failed.
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

// PairRouteStats reports cache hits and misses since construction. The
// counters are striped by source server (concurrent readers bump disjoint
// cache lines); the merge walks stripes in fixed index order, so for any
// fixed multiset of recorded events the totals are deterministic.
func (o *Oracle) PairRouteStats() (hits, misses uint64) {
	for i := range o.routeStats {
		hits += o.routeStats[i].hits.Load()
		misses += o.routeStats[i].misses.Load()
	}
	return hits, misses
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
// (rate × unit × hops, left-associated) so a cached result is
// bit-identical to the historical in-controller solve.
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
