// Package netstate provides the shared view of the network that every
// placement layer queries: a memoized path/cost oracle over one topology.
// It is the one place that computes a hop distance, shortest path, access
// switch, per-type switch list or path latency; internal/topology keeps
// only the graph and the generators' closed forms, which this package
// gates.
//
// Before this package existed, every consumer — Algorithm 1 in
// internal/controller, the preference-matrix build in internal/core, the
// PNA and CAM baselines and the flow-level simulator — independently re-ran BFS and re-scanned the switch
// inventory on every query, making the hot scheduling paths
// O(containers × servers × flows × BFS). The Oracle computes each
// per-source BFS distance table, shortest path, switch-type template and
// layered-DAG candidate stage list at most once and shares the result
// across all consumers.
//
// # Liveness contract
//
// Everything the oracle memoizes is structure-derived: distance rows,
// shortest paths, type templates, per-type switch lists, candidate stage
// lists and access switches. The topology graph is immutable after Build,
// so these invalidate only when node LIVENESS changes (fault injection
// crashing or recovering a switch). Every cached reader first calls
// ensureLive, which compares the topology's liveness version against the
// last one this oracle folded in and, on mismatch, drops every one of
// them; each is rebuilt lazily against the new alive-mask. The two tables
// of swdist.go are never dropped: the switch-pair distances are consulted
// only while no node is dead, and the rack grouping depends on edges
// alone. Nothing the oracle keeps depends on switch load, capacity or link
// bandwidth: Algorithm 1's segment cost (Eq. 2) is rate × hops, and load
// only gates which switches the caller passes in.
//
// An Oracle is not safe for concurrent use, like most standard-library
// types: it has one owner, the scheduling goroutine that drives the
// controller, and every cache and scratch buffer is a plain field.
package netstate

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/topology"
)

// pairKey identifies an ordered (src, dst) node pair.
type pairKey struct{ src, dst topology.NodeID }

// templateStages is one cached StagesForTemplate answer.
type templateStages struct {
	types  []string
	stages [][]topology.NodeID
}

// Oracle is the shared path/cost oracle over one topology. Obtain one with
// New (memoizing) or NewUncached (same API, every query computed fresh —
// the reference implementation parity tests compare against). An Oracle
// is not safe for concurrent use (see the package comment).
type Oracle struct {
	topo   *topology.Topology
	cached bool

	// liveSeen is the topology liveness version the structure caches were
	// built against.
	liveSeen uint64

	// distRows holds one BFS distance row per source node. The spine is
	// allocated on the first BFS fallback: structural fabrics never need
	// it.
	distRows [][]int32

	// (src,dst)-keyed caches.
	paths     map[pairKey][]topology.NodeID
	templates map[pairKey][]string

	// Per-type and per-template candidate caches. A fabric has a handful
	// of templates, so StagesForTemplate scans stages, comparing each
	// entry's types, rather than building a map key on every call.
	byType map[string][]topology.NodeID
	stages []templateStages

	// access caches each server's access switch (None for non-servers);
	// ensureLive drops it.
	access []topology.NodeID

	// swTab is the dense switch-pair distance table (swdist.go): built once
	// from healthy-graph closed forms, consulted only while structuralOK(),
	// never invalidated.
	swTab *swDistTab

	// racks is the single-homed rack grouping (swdist.go), built on first
	// use and never invalidated: it depends on edges, not liveness.
	racks *RackTable

	// routeHits counts BestRoute's closed-form answers and routeMisses its
	// DP solves (PairRouteStats).
	routeHits, routeMisses uint64

	// dp is solveStages' scratch, reused by every DP solve.
	dp dpScratch
}

// New returns a memoizing oracle over the topology.
func New(topo *topology.Topology) *Oracle {
	o := newOracle(topo)
	o.cached = true
	return o
}

// NewUncached returns an oracle with identical semantics but no
// memoization: every query recomputes from scratch. It exists so parity and
// property tests can assert that caching never changes an answer.
func NewUncached(topo *topology.Topology) *Oracle {
	return newOracle(topo)
}

func newOracle(topo *topology.Topology) *Oracle {
	if topo == nil {
		panic("netstate: nil topology")
	}
	return &Oracle{
		topo:      topo,
		paths:     make(map[pairKey][]topology.NodeID),
		templates: make(map[pairKey][]string),
		byType:    make(map[string][]topology.NodeID),
	}
}

// Topology returns the underlying graph.
func (o *Oracle) Topology() *topology.Topology { return o.topo }

// ensureLive folds the topology's current liveness version into the
// structure caches: on the first query after a node crashed or recovered,
// every memoized answer (distances, paths, templates, type lists, stage
// lists and access switches) is dropped and rebuilt lazily against the
// new alive-mask. Callers on the steady-state path pay one compare.
func (o *Oracle) ensureLive() {
	lv := o.topo.LivenessVersion()
	if o.liveSeen == lv {
		return
	}
	clear(o.distRows)
	o.paths = make(map[pairKey][]topology.NodeID)
	o.templates = make(map[pairKey][]string)
	o.byType = make(map[string][]topology.NodeID)
	o.stages = nil
	o.access = nil
	o.liveSeen = lv
}

// ---------------------------------------------------------------------------
// Distances and paths (structure-derived; never invalidated)
//
// On topologies built by the architecture generators, distance queries are
// answered by the coordinate closed forms in internal/topology — O(1) per
// pair, nothing memoized — so the oracle retains no per-source distance rows
// at all and its structural state is O(V) (the access-switch table) plus
// O(pairs actually routed) for paths/templates. The BFS row machinery below
// remains the parity-tested fallback, used whenever the topology is
// irregular or any node is crashed (the closed forms refuse per query while
// numDead > 0, so fault injection degrades gracefully and recovery restores
// the fast path without any cache interplay).
// ---------------------------------------------------------------------------

// structuralOK reports whether coordinate closed forms may answer right now.
// Only memoizing oracles take the fast path: NewUncached stays pure BFS so
// parity tests compare structural answers against the reference.
func (o *Oracle) structuralOK() bool {
	return o.cached && o.topo.Structural() && o.topo.AllAlive()
}

// closedForm reports whether the per-pair closed forms answer right now:
// the shared stage templates and topology.StageRoute. That takes
// structuralOK on a fabric whose servers are single-homed — Tree, Fat-Tree
// and VL2, not BCube.
func (o *Oracle) closedForm() bool {
	return o.structuralOK() && o.topo.ServersSingleHomed()
}

// computeDistRow runs a fresh BFS from src, traversing only live nodes: a
// dead source reaches nothing.
func (o *Oracle) computeDistRow(src topology.NodeID) []int32 {
	n := o.topo.NumNodes()
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	if !o.topo.Alive(src) {
		return d
	}
	d[src] = 0
	queue := make([]topology.NodeID, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := d[u]
		for _, v := range o.topo.Neighbors(u) {
			if d[v] == -1 && o.topo.Alive(v) {
				d[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return d
}

// structuralRow builds a full distance row from coordinates, O(V) work and
// nothing retained. ok=false when any query refuses (degraded mid-loop).
func (o *Oracle) structuralRow(src topology.NodeID) ([]int32, bool) {
	n := o.topo.NumNodes()
	d := make([]int32, n)
	for i := 0; i < n; i++ {
		dist, ok := o.topo.StructuralDist(src, topology.NodeID(i))
		if !ok {
			return nil, false
		}
		d[i] = int32(dist)
	}
	return d, true
}

// DistRow returns the BFS distance table from src (unreachable nodes get
// -1). The returned slice is shared; callers must not modify it. In
// structural mode the row is computed fresh from coordinates and NOT
// memoized — per-pair callers should prefer Dist, which needs no row.
func (o *Oracle) DistRow(src topology.NodeID) []int32 {
	if !o.cached {
		return o.computeDistRow(src)
	}
	if o.structuralOK() {
		if row, ok := o.structuralRow(src); ok {
			return row
		}
	}
	o.ensureLive()
	if o.distRows == nil {
		o.distRows = make([][]int32, o.topo.NumNodes())
	}
	if row := o.distRows[src]; row != nil {
		return row
	}
	d := o.computeDistRow(src)
	o.distRows[src] = d
	return d
}

// Dist returns the hop distance between a and b, or -1 if disconnected.
// O(1) via coordinate math on structural topologies; row lookup otherwise.
func (o *Oracle) Dist(a, b topology.NodeID) int {
	if o.cached {
		if d, ok := o.topo.StructuralDist(a, b); ok {
			return d
		}
	}
	return int(o.DistRow(a)[b])
}

// distFrom answers hop distances from one anchor node without building a
// row where it need not: while the coordinate closed forms answer, each
// probe is one StructuralDist; otherwise probes read the anchor's BFS row
// (DistRow). IDs must be valid.
type distFrom struct {
	topo *topology.Topology
	from topology.NodeID
	row  []int32
}

func (o *Oracle) distFrom(x topology.NodeID) distFrom {
	if o.structuralOK() {
		return distFrom{topo: o.topo, from: x}
	}
	return distFrom{row: o.DistRow(x)}
}

// to returns the hop distance from the anchor to y, -1 when unreachable.
// (The named result keeps it within the inliner's budget.)
func (d distFrom) to(y topology.NodeID) (h int) {
	if d.row == nil {
		h, _ = d.topo.StructuralDist(d.from, y)
		return h
	}
	return int(d.row[y])
}

// ShortestPath returns one shortest path from src to dst inclusive,
// preferring lower node IDs at ties. The returned slice is shared; callers
// must not modify it. It returns nil when disconnected.
func (o *Oracle) ShortestPath(src, dst topology.NodeID) []topology.NodeID {
	if src == dst {
		return []topology.NodeID{src}
	}
	key := pairKey{src, dst}
	if o.cached {
		o.ensureLive()
		if p, ok := o.paths[key]; ok {
			return p
		}
	}
	p := o.buildPath(src, dst)
	if o.cached {
		o.paths[key] = p
	}
	return p
}

// buildPath walks the lowest-ID shortest path from src to dst: from each
// node it steps to the first neighbour (adjacency is sorted) one hop
// closer to dst.
func (o *Oracle) buildPath(src, dst topology.NodeID) []topology.NodeID {
	toDst := o.distFrom(dst)
	rem := toDst.to(src)
	if rem < 0 {
		return nil
	}
	path := make([]topology.NodeID, 0, rem+1)
	path = append(path, src)
	for cur := src; cur != dst; rem-- {
		next := topology.None
		for _, nb := range o.topo.Neighbors(cur) {
			if toDst.to(nb) == rem-1 {
				next = nb
				break
			}
		}
		if next == topology.None {
			return nil // defensive; unreachable given rem >= 0
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// NearestByDist returns the candidate closest to src by hop distance,
// breaking ties toward lower node IDs; None when no candidate is reachable.
// This is the single lookup that replaces the fresh per-query BFS the
// preference-matrix build used to run.
func (o *Oracle) NearestByDist(src topology.NodeID, cands []topology.NodeID) topology.NodeID {
	from := o.distFrom(src)
	best := topology.None
	bestD := -1
	for _, c := range cands {
		d := from.to(c)
		if d < 0 {
			continue
		}
		if bestD == -1 || d < bestD || (d == bestD && c < best) {
			bestD, best = d, c
		}
	}
	return best
}

// PathLatency sums the per-switch and per-link delay along a node path,
// expressed in the paper's unit T: each switch traversed contributes 1 T
// (as in the §2.3 case study) and each link contributes its Latency.
func (o *Oracle) PathLatency(path []topology.NodeID) float64 {
	var total float64
	for i, id := range path {
		if o.topo.Node(id).IsSwitch() {
			total += 1
		}
		if i+1 < len(path) {
			if l, ok := o.topo.Link(id, path[i+1]); ok {
				total += l.Latency
			}
		}
	}
	return total
}

// ExpandRoute splices shortest sub-paths between consecutive route
// elements, turning a policy-level route into a concrete link walk, from
// cached path segments.
func (o *Oracle) ExpandRoute(route []topology.NodeID) ([]topology.NodeID, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("netstate: empty route")
	}
	out := make([]topology.NodeID, 1, len(route)*2)
	out[0] = route[0]
	for i := 1; i < len(route); i++ {
		if route[i] == route[i-1] {
			continue
		}
		seg := o.ShortestPath(route[i-1], route[i])
		if seg == nil {
			return nil, fmt.Errorf("netstate: no path between %d and %d", route[i-1], route[i])
		}
		out = append(out, seg[1:]...)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Type templates and candidate stages (structure-derived)
// ---------------------------------------------------------------------------

// TypeTemplate returns the switch-type sequence along the lowest-ID
// shortest path between two nodes — the required policy template of a flow
// between servers src and dst (w.type per hop). Empty (nil) for src == dst;
// an error when disconnected. The returned slice is shared; callers must
// not modify it. Server pairs of a healthy generated fabric take the
// topology's closed form; Tree, Fat-Tree and VL2 share one template per
// pair class, so only BCube's templates, built per pair, and the answers
// read off a path join the pair map.
func (o *Oracle) TypeTemplate(src, dst topology.NodeID) ([]string, error) {
	if src == dst {
		return nil, nil
	}
	key := pairKey{src, dst}
	memo := o.cached && !o.closedForm()
	if memo {
		o.ensureLive()
		if t, ok := o.templates[key]; ok {
			return t, nil
		}
	}
	var types []string
	ok := false
	if o.structuralOK() {
		types, ok = o.topo.StageTemplate(src, dst)
	}
	if !ok {
		path := o.ShortestPath(src, dst)
		if path == nil {
			return nil, fmt.Errorf("netstate: no path between nodes %d and %d", src, dst)
		}
		types = make([]string, 0, len(path))
		for _, n := range path {
			if o.topo.Node(n).IsSwitch() {
				types = append(types, o.topo.Node(n).Type)
			}
		}
	}
	if memo {
		o.templates[key] = types
	}
	return types, nil
}

// SwitchesOfType returns all live switches of the given type, ascending;
// crashed switches cannot serve any policy stage. The returned slice is
// shared; callers must not modify it.
func (o *Oracle) SwitchesOfType(typ string) []topology.NodeID {
	if o.cached {
		o.ensureLive()
		if s, ok := o.byType[typ]; ok {
			return s
		}
	}
	var s []topology.NodeID
	for _, id := range o.topo.Switches() {
		if o.topo.Node(id).Type == typ && o.topo.Alive(id) {
			s = append(s, id)
		}
	}
	if o.cached {
		o.byType[typ] = s
	}
	return s
}

// StagesForTemplate returns the full (capacity-unfiltered) candidate stage
// lists of a layered flow-path graph: stage i holds every switch whose type
// matches types[i]. Both the outer and inner slices are shared; callers
// must not modify them. Capacity feasibility is a per-query, per-flow
// concern and is filtered by the caller against the current switch loads.
func (o *Oracle) StagesForTemplate(types []string) [][]topology.NodeID {
	if len(types) == 0 {
		return nil
	}
	if !o.cached {
		stages := make([][]topology.NodeID, len(types))
		for i, typ := range types {
			stages[i] = o.SwitchesOfType(typ)
		}
		return stages
	}
	o.ensureLive()
	for _, ts := range o.stages {
		if slices.Equal(ts.types, types) {
			return ts.stages
		}
	}
	stages := make([][]topology.NodeID, len(types))
	for i, typ := range types {
		stages[i] = o.SwitchesOfType(typ)
	}
	o.stages = append(o.stages, templateStages{types: slices.Clone(types), stages: stages})
	return stages
}

// AccessSwitch returns the access switch a server attaches to: its live
// switch neighbour of lowest tier. None for non-servers, invalid IDs and
// servers with no live switch neighbour. Memoizing oracles fill one table
// for every node on first use.
func (o *Oracle) AccessSwitch(server topology.NodeID) topology.NodeID {
	if !o.topo.Valid(server) {
		return topology.None
	}
	if !o.cached {
		return o.accessOf(server)
	}
	o.ensureLive()
	if o.access == nil {
		o.access = make([]topology.NodeID, o.topo.NumNodes())
		for i := range o.access {
			o.access[i] = o.accessOf(topology.NodeID(i))
		}
	}
	return o.access[server]
}

func (o *Oracle) accessOf(x topology.NodeID) topology.NodeID {
	best := topology.None
	if !o.topo.Node(x).IsServer() {
		return best
	}
	bestTier := math.MaxInt
	for _, nb := range o.topo.Neighbors(x) {
		if n := o.topo.Node(nb); n.IsSwitch() && n.Tier < bestTier && o.topo.Alive(nb) {
			best, bestTier = nb, n.Tier
		}
	}
	return best
}
