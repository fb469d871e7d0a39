// Package netstate provides the shared, epoch-versioned view of the network
// that every placement layer queries: a memoized path/cost oracle over one
// topology plus the controller's switch-load state.
//
// Before this package existed, every consumer — Algorithm 1 in
// internal/controller, the preference-matrix build in internal/core, the
// PNA/CAM/DelayScheduling baselines, the YARN DelayFetcher and the
// flow-level simulator — independently re-ran BFS and re-scanned the switch
// inventory on every query, making the hot scheduling paths
// O(containers × servers × flows × BFS). The Oracle computes each
// per-source BFS distance table, shortest path, switch-type template,
// layered-DAG candidate stage list and bottleneck path bandwidth at most
// once and shares the result across all consumers.
//
// # Epoch-invalidation contract
//
// The oracle distinguishes two kinds of cached state:
//
//   - Structure-derived state (distances, shortest paths, type templates,
//     per-type switch lists, access switches): the topology
//     graph is immutable after Build, so these invalidate only when node
//     LIVENESS changes (fault injection crashing or recovering a switch).
//     Every cached reader first calls ensureLive, which compares the
//     topology's liveness version against the last one this oracle folded
//     in and, on mismatch, drops every structure-derived cache — including
//     the pair-route cache (pairroute.go: a dense server × server table on
//     small fabrics plus one map), whose full-stage solves would otherwise
//     survive forever and could name a dead switch.
//   - Parameter-derived state (switch headroom, bottleneck path bandwidth):
//     valid only for one epoch. Epoch() is the sum of the topology's
//     mutation version (bumped by SetSwitchCapacity / SetLinkBandwidth),
//     the topology's liveness version (bumped by SetNodeAlive), and the
//     oracle's own counter, which the policy controller bumps on every
//     Install / Uninstall / Reset via BumpEpoch(). Any cached view tagged
//     with an older epoch is recomputed on next access.
//
// An Oracle is not safe for concurrent use, like most standard-library
// types: it has one owner, the scheduling goroutine that drives the
// controller, and every cache is a plain field. Fan-outs that need
// oracle answers (the preference build in internal/core) fetch them
// before they fan out and share only the returned rows, which are never
// written after they are returned; the race detector catches a worker
// that calls an oracle method.
package netstate

import (
	"fmt"
	"strings"

	"repro/internal/topology"
)

// LoadFunc reports the aggregate flow rate currently routed through a
// switch. The policy controller binds its own load view here.
type LoadFunc func(topology.NodeID) float64

// pairKey identifies an ordered (src, dst) node pair.
type pairKey struct{ src, dst topology.NodeID }

// bandEntry is a bottleneck-bandwidth cache entry, valid for one topology
// version only (link bandwidths may change under failure injection).
type bandEntry struct {
	version   uint64
	bandwidth float64
}

// Oracle is the shared path/cost oracle over one topology. Obtain one with
// New (memoizing) or NewUncached (same API, every query computed fresh —
// the reference implementation parity tests compare against). An Oracle
// is not safe for concurrent use (see the package comment).
type Oracle struct {
	topo   *topology.Topology
	cached bool

	// epoch counts controller-state mutations; Epoch() adds the topology's
	// own version so either kind of mutation invalidates parameter caches.
	epoch uint64
	load  LoadFunc

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
	bands     map[pairKey]bandEntry

	// Per-type and per-template candidate caches.
	byType map[string][]topology.NodeID
	stages map[string][][]topology.NodeID

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

	// The epoch-tagged headroom view.
	headEpoch    uint64
	headValid    bool
	headroom     []float64
	loadSnapshot []float64

	// Server-pair route cache (pairroute.go): a dense table for small
	// clusters, one map above denseRouteLimit pair slots and for
	// non-server endpoints. routeServerIdx is nil until first use.
	routeDense      []*PairRoute
	routeServerIdx  []int32
	routeNumServers int
	routeMap        map[pairKey]*PairRoute

	// routeHits and routeMisses count pair-route lookups (PairRouteStats).
	routeHits, routeMisses uint64
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
		bands:     make(map[pairKey]bandEntry),
		byType:    make(map[string][]topology.NodeID),
		stages:    make(map[string][][]topology.NodeID),
	}
}

// Topology returns the underlying graph.
func (o *Oracle) Topology() *topology.Topology { return o.topo }

// Epoch returns the snapshot version: the topology's parameter-mutation
// version plus its liveness version plus the controller-driven counter.
// All three only ever increase, so the sum strictly increases on any
// mutation — including a node crash or recovery.
func (o *Oracle) Epoch() uint64 {
	return o.epoch + o.topo.Version() + o.topo.LivenessVersion()
}

// ensureLive folds the topology's current liveness version into the
// structure caches: on the first query after a node crashed or recovered,
// every structure-derived cache (distances, paths, templates, type lists,
// access switches, bottleneck bandwidths and the pair-route table)
// is dropped and rebuilt lazily against the new alive-mask. Callers on
// the steady-state path pay one compare.
func (o *Oracle) ensureLive() {
	lv := o.topo.LivenessVersion()
	if o.liveSeen == lv {
		return
	}
	clear(o.distRows)
	o.paths = make(map[pairKey][]topology.NodeID)
	o.templates = make(map[pairKey][]string)
	o.bands = make(map[pairKey]bandEntry)
	o.byType = make(map[string][]topology.NodeID)
	o.stages = make(map[string][][]topology.NodeID)
	o.access = nil
	o.clearPairRoutes()
	o.liveSeen = lv
}

// BumpEpoch invalidates every parameter-derived cache. The policy
// controller calls it whenever switch loads change (Install, Uninstall,
// Reset). The epoch counter is one of taalint's recognized bump targets:
// a blessed mutator calling BumpEpoch (directly or transitively) on every
// mutating path discharges its epochbump proof obligation.
func (o *Oracle) BumpEpoch() { o.epoch++ }

// BindLoad attaches the switch-load source (the controller's Load method).
// An unbound oracle sees zero load everywhere.
func (o *Oracle) BindLoad(fn LoadFunc) {
	o.load = fn
	o.BumpEpoch()
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

// computeDistRow runs a fresh BFS from src, traversing only live nodes
// (mirroring topology.bfs: a dead source reaches nothing).
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

// ShortestPath returns one shortest path from src to dst inclusive,
// preferring lower node IDs at ties — the same tie-break as
// topology.ShortestPath. The returned slice is shared; callers must not
// modify it. It returns nil when disconnected.
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

// buildPath reconstructs the lowest-ID shortest path using the distance
// table of dst (mirroring topology.ShortestPath exactly). In structural
// mode the dst row never materializes: each neighbor probe is an O(1)
// coordinate query, preserving the identical first-lowest-ID tie-break.
func (o *Oracle) buildPath(src, dst topology.NodeID) []topology.NodeID {
	if o.structuralOK() {
		if p, ok := o.buildPathStructural(src, dst); ok {
			return p
		}
	}
	dd := o.DistRow(dst)
	if dd[src] < 0 {
		return nil
	}
	path := make([]topology.NodeID, 0, int(dd[src])+1)
	path = append(path, src)
	cur := src
	for cur != dst {
		next := topology.None
		for _, nb := range o.topo.Neighbors(cur) {
			if dd[nb] == dd[cur]-1 {
				next = nb
				break // adjacency is sorted: lowest-ID choice
			}
		}
		if next == topology.None {
			return nil // defensive; unreachable given dd[src] >= 0
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// buildPathStructural is buildPath's coordinate-math twin: same walk, same
// sorted-adjacency first-match tie-break, no distance row.
func (o *Oracle) buildPathStructural(src, dst topology.NodeID) ([]topology.NodeID, bool) {
	rem, ok := o.topo.StructuralDist(src, dst)
	if !ok {
		return nil, false
	}
	path := make([]topology.NodeID, 0, rem+1)
	path = append(path, src)
	cur := src
	for cur != dst {
		next := topology.None
		for _, nb := range o.topo.Neighbors(cur) {
			d, dok := o.topo.StructuralDist(nb, dst)
			if !dok {
				return nil, false // degraded mid-walk: redo via BFS rows
			}
			if d == rem-1 {
				next = nb
				break // adjacency is sorted: lowest-ID choice
			}
		}
		if next == topology.None {
			return nil, true // defensive; healthy structural graphs are connected
		}
		path = append(path, next)
		cur = next
		rem--
	}
	return path, true
}

// NearestByDist returns the candidate closest to src by hop distance,
// breaking ties toward lower node IDs; None when no candidate is reachable.
// This is the single lookup that replaces the fresh per-query BFS the
// preference-matrix build used to run.
func (o *Oracle) NearestByDist(src topology.NodeID, cands []topology.NodeID) topology.NodeID {
	if o.structuralOK() {
		if best, ok := o.nearestStructural(src, cands); ok {
			return best
		}
	}
	row := o.DistRow(src)
	best := topology.None
	bestD := int32(-1)
	for _, c := range cands {
		d := row[c]
		if d < 0 {
			continue
		}
		if bestD == -1 || d < bestD || (d == bestD && c < best) {
			bestD, best = d, c
		}
	}
	return best
}

// nearestStructural scans candidates with O(1) coordinate distances — same
// compare, same lower-ID tie-break, no row. Healthy structural graphs are
// connected, so the fallback's unreachable-skip never fires here.
func (o *Oracle) nearestStructural(src topology.NodeID, cands []topology.NodeID) (topology.NodeID, bool) {
	best := topology.None
	bestD := -1
	for _, c := range cands {
		d, ok := o.topo.StructuralDist(src, c)
		if !ok {
			return topology.None, false
		}
		if bestD == -1 || d < bestD || (d == bestD && c < best) {
			bestD, best = d, c
		}
	}
	return best, true
}

// PathLatency sums per-switch and per-link delay along a node path, in the
// paper's T unit (delegates to the topology).
func (o *Oracle) PathLatency(path []topology.NodeID) float64 {
	return o.topo.PathLatency(path)
}

// ExpandRoute splices shortest sub-paths between consecutive route
// elements, turning a policy-level route into a concrete link walk. Unlike
// the topology-level helper it reuses cached path segments.
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
// not modify it. Server pairs of a healthy Tree, Fat-Tree or VL2 fabric
// get the topology's per-class template without touching the pair map.
func (o *Oracle) TypeTemplate(src, dst topology.NodeID) ([]string, error) {
	if src == dst {
		return nil, nil
	}
	if o.closedForm() {
		if tmpl, ok := o.topo.StageTemplate(src, dst); ok {
			return tmpl, nil
		}
	}
	key := pairKey{src, dst}
	if o.cached {
		o.ensureLive()
		if t, ok := o.templates[key]; ok {
			return t, nil
		}
	}
	var types []string
	if tmpl, ok := o.structuralTemplate(src, dst); ok {
		types = tmpl
	} else {
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
	if o.cached {
		o.templates[key] = types
	}
	return types, nil
}

// structuralTemplate answers TypeTemplate from coordinates for server pairs
// on healthy structural topologies, skipping path materialization entirely.
func (o *Oracle) structuralTemplate(src, dst topology.NodeID) ([]string, bool) {
	if !o.structuralOK() {
		return nil, false
	}
	return o.topo.StageTemplate(src, dst)
}

// SwitchesOfType returns all switches of the given type, ascending. The
// returned slice is shared; callers must not modify it.
func (o *Oracle) SwitchesOfType(typ string) []topology.NodeID {
	if !o.cached {
		return o.topo.SwitchesOfType(typ)
	}
	o.ensureLive()
	s, ok := o.byType[typ]
	if !ok {
		s = o.topo.SwitchesOfType(typ)
		o.byType[typ] = s
	}
	return s
}

// StagesForTemplate returns the full (capacity-unfiltered) candidate stage
// lists of a layered flow-path graph: stage i holds every switch whose type
// matches types[i]. Both the outer and inner slices are shared; callers
// must not modify them. Capacity feasibility is a per-query, per-flow
// concern and is filtered by the caller against the current epoch's loads.
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
	key := strings.Join(types, "\x1f")
	o.ensureLive()
	if s, ok := o.stages[key]; ok {
		return s
	}
	stages := make([][]topology.NodeID, len(types))
	for i, typ := range types {
		stages[i] = o.SwitchesOfType(typ)
	}
	o.stages[key] = stages
	return stages
}

// AccessSwitch returns the access switch a server attaches to (cached; None
// for non-servers).
func (o *Oracle) AccessSwitch(server topology.NodeID) topology.NodeID {
	if !o.cached {
		return o.topo.AccessSwitch(server)
	}
	o.ensureLive()
	if o.access == nil {
		o.access = make([]topology.NodeID, o.topo.NumNodes())
		for i := range o.access {
			o.access[i] = o.topo.AccessSwitch(topology.NodeID(i))
		}
	}
	if !o.topo.Valid(server) {
		return topology.None
	}
	return o.access[server]
}

// ---------------------------------------------------------------------------
// Parameter-derived views (epoch-gated)
// ---------------------------------------------------------------------------

func (o *Oracle) loadOf(w topology.NodeID) float64 {
	if o.load == nil {
		return 0
	}
	return o.load(w)
}

// refreshHeadroom rebuilds the per-switch load/headroom snapshot for the
// given epoch unless it already holds that epoch's view.
func (o *Oracle) refreshHeadroom(epoch uint64) {
	if o.headValid && o.headEpoch == epoch {
		return
	}
	n := o.topo.NumNodes()
	if o.headroom == nil {
		o.headroom = make([]float64, n)
		o.loadSnapshot = make([]float64, n)
	}
	for _, w := range o.topo.Switches() {
		l := o.loadOf(w)
		o.loadSnapshot[w] = l
		o.headroom[w] = o.topo.Node(w).Capacity - l
	}
	o.headEpoch = epoch
	o.headValid = true
}

// Headroom returns a switch's remaining processing capacity
// (capacity − load) as of the current epoch.
func (o *Oracle) Headroom(w topology.NodeID) float64 {
	if !o.cached {
		return o.topo.Node(w).Capacity - o.loadOf(w)
	}
	o.refreshHeadroom(o.Epoch())
	return o.headroom[w]
}

// Load returns the aggregate rate routed through switch w as of the current
// epoch.
func (o *Oracle) Load(w topology.NodeID) float64 {
	if !o.cached {
		return o.loadOf(w)
	}
	o.refreshHeadroom(o.Epoch())
	return o.loadSnapshot[w]
}

// PathBandwidth returns the bottleneck link bandwidth along the lowest-ID
// shortest path between src and dst (B_ij in §6.1), cached per topology
// version so failure-injected bandwidth changes invalidate it. It returns
// an error for same-node pairs and disconnected pairs.
func (o *Oracle) PathBandwidth(src, dst topology.NodeID) (float64, error) {
	if src == dst {
		return 0, fmt.Errorf("netstate: same-node pair has no path bandwidth")
	}
	version := o.topo.Version()
	key := pairKey{src, dst}
	if o.cached {
		o.ensureLive()
		if e, ok := o.bands[key]; ok && e.version == version {
			return e.bandwidth, nil
		}
	}
	path := o.ShortestPath(src, dst)
	if path == nil {
		return 0, fmt.Errorf("netstate: no path between %d and %d", src, dst)
	}
	min := -1.0
	for i := 1; i < len(path); i++ {
		l, ok := o.topo.Link(path[i-1], path[i])
		if !ok {
			return 0, fmt.Errorf("netstate: missing link %d-%d", path[i-1], path[i])
		}
		if min < 0 || l.Bandwidth < min {
			min = l.Bandwidth
		}
	}
	if o.cached {
		o.bands[key] = bandEntry{version: version, bandwidth: min}
	}
	return min, nil
}
