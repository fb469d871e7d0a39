// Rack-bucket preference rows: Algorithm 2's proposer rows in
// O(racks + peers + K) per container instead of O(servers).
//
// On a healthy fabric whose servers are single-homed, a container's
// anchored cost on a server s is Σ rate × dist(peer, s) over its incident
// flows, and dist(peer, s) = 1 + dist(peer, access(s)) for every s that is
// not the peer itself. So every non-peer server of a rack carries the same
// grade, and a proposer row is a handful of grade buckets: racks and peer
// servers sorted by grade, each bucket's servers in feasible-server
// (ascending) order. Emitting the buckets in that order reproduces
// stableRankDesc's permutation exactly, and stopping after K entries yields
// its K-prefix without ever touching the rest of the servers.
//
// A cut row is exact for deferred acceptance as long as its proposer never
// runs off the end of it, and a proposer ends Unmatched if and only if it
// did. assignGroup checks that after every match and rebuilds the
// offenders' rows in full, so the cut changes work, never a placement.

package core

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// maxRowLen is the proposer-row cut on the rack-bucket path. On the
// benchmark's 10,000-server rack tree (perfbench rack10k-plan) deferred
// acceptance reads about 20 entries of a row and at most 51, so no cut row
// there needs the full-row rebuild.
const maxRowLen = 256

// rowLimit returns the proposer-row cut, 0 meaning full rows. The
// DisableStableMatching ablation walks whole rows, so it never cuts.
func (h *HitScheduler) rowLimit() int {
	switch {
	case h.DisableStableMatching:
		return 0
	case h.rowCap > 0:
		return h.rowCap
	}
	return maxRowLen
}

// rackBuild is one group's view for the rack-bucket build: the rack of
// every server and one rack-distance row per anchored peer server.
type rackBuild struct {
	clu     *cluster.Cluster
	servers []topology.NodeID
	rackOf  []int32 // NodeID → rack ordinal
	nRacks  int
	dists   map[topology.NodeID][]int32 // peer server → Oracle.RackDists row
}

func newRackBuild(clu *cluster.Cluster, racks *netstate.RackTable, st *runState) *rackBuild {
	return &rackBuild{
		clu:     clu,
		servers: clu.Servers(),
		rackOf:  racks.Of,
		nRacks:  len(racks.Switches),
		dists:   st.rackDists,
	}
}

// rack returns the rack of server ordinal si.
func (b *rackBuild) rack(si int32) int32 { return b.rackOf[b.servers[si]] }

// fetch makes sure peer server ps has its rack-distance row before a row
// that reads it is built.
func (b *rackBuild) fetch(o *netstate.Oracle, ps topology.NodeID) {
	if _, ok := b.dists[ps]; !ok {
		b.dists[ps] = o.RackDists(nil, ps)
	}
}

// groupByRack fills the class's rack tables from its feasible list:
// rackSrv holds the feasible server ordinals grouped by rack, ascending
// within each rack, and rack r's share is rackSrv[rackOff[r]:rackOff[r+1]].
func (b *rackBuild) groupByRack(cl *demandClass) {
	off := make([]int32, b.nRacks+1)
	for _, si := range cl.feas {
		off[b.rack(int32(si))+1]++
	}
	for r := 0; r < b.nRacks; r++ {
		off[r+1] += off[r]
	}
	fill := slices.Clone(off[:b.nRacks])
	srv := make([]int32, len(cl.feas))
	for _, si := range cl.feas {
		r := b.rack(int32(si))
		srv[fill[r]] = int32(si)
		fill[r]++
	}
	cl.rackOff, cl.rackSrv = off, srv
}

// rackServers returns the class's feasible servers in rack r.
func (cl *demandClass) rackServers(r int32) []int32 {
	return cl.rackSrv[cl.rackOff[r]:cl.rackOff[r+1]]
}

// feasibleAt reports whether server ordinal si is in the class's feasible
// set.
func (b *rackBuild) feasibleAt(cl *demandClass, si int32) bool {
	_, ok := slices.BinarySearch(cl.rackServers(b.rack(si)), si)
	return ok
}

// vote is netstate.(*Oracle).NearestByDist over the class's feasible
// servers, answered from the rack tables: the peer itself when feasible
// (distance 0), else the lowest-ID feasible server of the nearest rack —
// every server of a rack is 1 + dist(peer, access) away, so the rack
// distance decides and ties across racks go to the lower ID. Returns the
// server ordinal, or -1 when nothing is reachable.
func (b *rackBuild) vote(cl *demandClass, ps topology.NodeID) int {
	si := int32(b.clu.ServerIndex(ps))
	if b.feasibleAt(cl, si) {
		return int(si)
	}
	dist := b.dists[ps]
	best, bestD := int32(-1), int32(-1)
	for r := int32(0); int(r) < b.nRacks; r++ {
		in := cl.rackServers(r)
		d := dist[r]
		if len(in) == 0 || d < 0 {
			continue
		}
		if bestD == -1 || d < bestD || (d == bestD && in[0] < best) {
			best, bestD = in[0], d
		}
	}
	return int(best)
}

// rowItem is one grade bucket member: a rack's non-peer feasible servers
// (rack >= 0) or one feasible peer server (rack == -1, srv).
type rowItem struct {
	grade float64
	rack  int32
	srv   int32
}

func byGradeDesc(a, b rowItem) int {
	switch {
	case a.grade > b.grade:
		return -1
	case a.grade < b.grade:
		return 1
	}
	return 0
}

// mergeCursor walks one bucket member's servers during a k-way merge.
// Rack members skip the container's peer servers, which rank separately.
type mergeCursor struct {
	head int32
	rest []int32
	rack bool
}

// row builds one container's proposer row: the first limit entries (all
// when limit <= 0) of the ranking stableRankDesc gives over the class's
// feasible servers by Eq. 10 utility, and whether the cut dropped any.
// flows and peers are the container's incident flows and their anchored
// peer servers, orig its server before the group was released.
//
// Every cost is summed in flow order from the same integer distances the
// per-server build reads, so each grade is bit-identical to the one it
// would compute for any server of the rack.
func (b *rackBuild) row(sc *assignScratch, cl *demandClass, flows []*flow.Flow, peers []topology.NodeID, orig, limit int) ([]int, bool) {
	// Distinct peer servers in first-appearance order; peerSlot marks them
	// by server ordinal until the row is done.
	if len(sc.peerSlot) < len(b.servers) {
		sc.peerSlot = make([]int32, len(b.servers))
		for i := range sc.peerSlot {
			sc.peerSlot[i] = -1
		}
	}
	slot := sc.peerSlot
	dp, drow := sc.dpeers[:0], sc.drows[:0]
	peerOf := growI32(sc.peerOf, len(peers))
	for k, ps := range peers {
		si := int32(b.clu.ServerIndex(ps))
		j := slot[si]
		if j < 0 {
			j = int32(len(dp))
			slot[si] = j
			dp = append(dp, si)
			drow = append(drow, b.dists[ps])
		}
		peerOf[k] = j
	}
	sc.dpeers, sc.drows, sc.peerOf = dp, drow, peerOf
	defer func() {
		for _, si := range dp {
			slot[si] = -1
		}
		for j := range drow {
			drow[j] = nil
		}
	}()

	// acc[r]: cost on any non-peer server of rack r, Σ rate × (1 + dist
	// to r's access switch), accumulated in flow order per rack.
	acc := growF64(sc.accCost, b.nRacks)
	sc.accCost = acc
	for r := range acc {
		acc[r] = 0
	}
	for k, f := range flows {
		for r, da := range drow[peerOf[k]] {
			if da < 0 {
				continue
			}
			acc[r] += f.Rate * float64(1+da)
		}
	}
	// pc[j]: cost on peer server dp[j] itself, where its own flows are 0
	// hops long.
	pc := growF64(sc.peerCost, len(dp))
	sc.peerCost = pc
	for j, si := range dp {
		rj := b.rack(si)
		var cost float64
		for k, f := range flows {
			var d int32
			if peerOf[k] != int32(j) {
				da := drow[peerOf[k]][rj]
				if da < 0 {
					continue
				}
				d = 1 + da
			}
			cost += f.Rate * float64(d)
		}
		pc[j] = cost
	}
	costAt := func(si int32) float64 {
		if j := slot[si]; j >= 0 {
			return pc[j]
		}
		return acc[b.rack(si)]
	}
	cur := costAt(int32(orig))

	items := sc.items[:0]
	nan := false
	for r := int32(0); int(r) < b.nRacks; r++ {
		if len(cl.rackServers(r)) > 0 {
			g := cur - acc[r]
			nan = nan || math.IsNaN(g)
			items = append(items, rowItem{grade: g, rack: r})
		}
	}
	for j, si := range dp {
		if b.feasibleAt(cl, si) {
			g := cur - pc[j]
			nan = nan || math.IsNaN(g)
			items = append(items, rowItem{grade: g, rack: -1, srv: si})
		}
	}
	sc.items = items
	if nan {
		// NaN has no bucket; the comparator-defined full build decides.
		grades := growF64(sc.grades, len(cl.feas))
		sc.grades = grades
		for i, si := range cl.feas {
			grades[i] = cur - costAt(int32(si))
		}
		prop := make([]int, len(cl.feas))
		if !sc.stableRankDesc(grades, cl.feas, prop) {
			sortDescFallback(grades, cl.feas, prop)
		}
		return prop, false
	}
	return b.emitRow(sc, cl, items, limit)
}

// emitRow sorts a row's bucket members by grade, descending, and emits
// their servers bucket by bucket until limit entries (all when limit <= 0).
// Peer servers marked in sc.peerSlot rank only as their own members. It
// reports whether the cut dropped any feasible server.
func (b *rackBuild) emitRow(sc *assignScratch, cl *demandClass, items []rowItem, limit int) ([]int, bool) {
	slices.SortFunc(items, byGradeDesc)
	n := len(cl.feas)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]int, 0, n)
	for i := 0; i < len(items) && len(out) < n; {
		j := i + 1
		for j < len(items) && items[j].grade == items[i].grade { //taalint:floateq buckets are exact grades, as in stableRankDesc; == also joins −0 with +0
			j++
		}
		out = b.emitBucket(sc, cl, items[i:j], out, n)
		i = j
	}
	return out, len(out) < len(cl.feas)
}

// emitBucket appends one equal-grade bucket's servers to out in ascending
// ordinal order, stopping at n entries. Grades compare with ==, so −0 and
// +0 share a bucket exactly as stableRankDesc's normalized keys do.
func (b *rackBuild) emitBucket(sc *assignScratch, cl *demandClass, bucket []rowItem, out []int, n int) []int {
	slot := sc.peerSlot
	if len(bucket) == 1 {
		it := bucket[0]
		if it.rack < 0 {
			return append(out, int(it.srv))
		}
		for _, si := range cl.rackServers(it.rack) {
			if len(out) == n {
				break
			}
			if slot[si] < 0 {
				out = append(out, int(si))
			}
		}
		return out
	}
	hp := sc.heap[:0]
	for _, it := range bucket {
		if it.rack < 0 {
			hp = append(hp, mergeCursor{head: it.srv})
			continue
		}
		in := cl.rackServers(it.rack)
		hp = append(hp, mergeCursor{head: in[0], rest: in[1:], rack: true})
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		siftDown(hp, i)
	}
	for len(hp) > 0 && len(out) < n {
		top := &hp[0]
		if si := top.head; !top.rack || slot[si] < 0 {
			out = append(out, int(si))
		}
		if len(top.rest) > 0 {
			top.head, top.rest = top.rest[0], top.rest[1:]
		} else {
			hp[0] = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
		}
		siftDown(hp, 0)
	}
	for i := range hp {
		hp[i].rest = nil
	}
	sc.heap = hp[:0]
	return out
}

// siftDown restores the min-heap order on head below position i.
func siftDown(hp []mergeCursor, i int) {
	for {
		l := 2*i + 1
		if l >= len(hp) {
			return
		}
		m := l
		if r := l + 1; r < len(hp) && hp[r].head < hp[l].head {
			m = r
		}
		if hp[i].head <= hp[m].head {
			return
		}
		hp[i], hp[m] = hp[m], hp[i]
		i = m
	}
}

// compactHosts lists, ascending, the server ordinals named in some proposer
// row, and rewrites the rows over positions in that list. Deferred
// acceptance never touches a host no proposer names, so matching over the
// list and mapping back is the full matching.
func (st *runState) compactHosts(nServers int, rows [][]int) (hosts []int, out [][]int) {
	if len(st.hostPos) < nServers {
		st.hostPos = make([]int32, nServers)
		for i := range st.hostPos {
			st.hostPos[i] = -1
		}
	}
	pos := st.hostPos
	total := 0
	for _, r := range rows {
		for _, si := range r {
			pos[si] = 0
		}
		total += len(r)
	}
	for si := 0; si < nServers; si++ {
		if pos[si] >= 0 {
			pos[si] = int32(len(hosts))
			hosts = append(hosts, si)
		}
	}
	slab := make([]int, total)
	out = make([][]int, len(rows))
	for p, r := range rows {
		o := slab[:len(r):len(r)]
		slab = slab[len(r):]
		for t, si := range r {
			o[t] = int(pos[si])
		}
		out[p] = o
	}
	for _, si := range hosts {
		pos[si] = -1
	}
	return hosts, out
}
