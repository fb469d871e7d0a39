// Dense switch-pair hop distances for the layered-DP hot loop.
//
// solveStages evaluates rate × unit × hops for every (candidate, candidate)
// pair of adjacent stages — switch-to-switch segments, drawn from a node set
// that is tiny next to the server count (a 10 000-server rack tree has 111
// switches). Answering those through the per-pair coordinate closed forms is
// O(1) but not free (tier lifts, divisions); at ~8M segment evaluations per
// scheduling wave the arithmetic dominates the profile. This table
// precomputes the S×S switch distances of the HEALTHY graph once into a flat
// int32 array, so the steady-state segment cost is two index loads.
//
// Parity: the table stores the exact integers StructuralDist returns, and
// server endpoints are lifted through the single-homed access identity
// d(s, x) = 1 + d(access(s), x) for x != s — exact on the healthy graph — so
// every float produced from a table lookup is bit-identical to the per-pair
// path. The table is consulted only while structuralOK() holds (memoizing
// oracle, structural family, no dead nodes); degraded or irregular graphs
// keep the existing Dist path. Healthy-graph distances never change after
// construction (generators emit immutable graphs; parameter mutations touch
// bandwidths, not edges), so the table is built once and never invalidated —
// crashes simply stop consulting it and recovery resumes.
package netstate

import "repro/internal/topology"

// maxSwitchPairSlots caps the table at 4 MiB of int32 so oracle space stays
// effectively O(V) even on switch-heavy fabrics; above the cap the oracle
// permanently falls back to per-pair closed forms.
const maxSwitchPairSlots = 1 << 20

// swDistTab is the immutable switch-pair distance table. dist==nil marks a
// permanently disabled table (irregular family or over the size cap).
type swDistTab struct {
	idx  []int32 // NodeID → switch ordinal; -1 for servers
	dist []int32 // ordinal-major S×S healthy-graph hop distances
	s    int     // number of switches
}

// switchTable returns the lazily built table. Callers must hold
// structuralOK() == true.
func (o *Oracle) switchTable() *swDistTab {
	if o.swTab == nil {
		o.swTab = o.buildSwitchTable()
	}
	return o.swTab
}

func (o *Oracle) buildSwitchTable() *swDistTab {
	sw := o.topo.Switches()
	s := len(sw)
	if s == 0 || s*s > maxSwitchPairSlots {
		return &swDistTab{}
	}
	t := &swDistTab{
		idx:  make([]int32, o.topo.NumNodes()),
		dist: make([]int32, s*s),
		s:    s,
	}
	for i := range t.idx {
		t.idx[i] = -1
	}
	for i, w := range sw {
		t.idx[w] = int32(i)
	}
	for i, a := range sw {
		row := t.dist[i*s : (i+1)*s]
		for j, b := range sw {
			d, _ := o.topo.StructuralDist(a, b) // answers while structuralOK holds
			row[j] = int32(d)
		}
	}
	return t
}

// liftEndpoint resolves a segment endpoint to a switch ordinal plus the
// hops spent getting there: switches map directly (lift 0); single-homed
// servers lift one hop onto their access switch, by the healthy-graph
// identity d(s, x) = 1 + d(access(s), x) for x != s. ord=-1 means the table
// cannot answer for this endpoint (multi-homed server, e.g. BCube) and the
// caller must use per-pair Dist.
func (o *Oracle) liftEndpoint(t *swDistTab, x topology.NodeID) (ord, lift int32) {
	if i := t.idx[x]; i >= 0 {
		return i, 0
	}
	if o.topo.ServersSingleHomed() {
		if acc := o.AccessSwitch(x); acc != topology.None {
			return t.idx[acc], 1
		}
	}
	return -1, 0
}

// enabled reports whether the table holds distances (vs the disabled
// sentinel stored for over-cap or switch-less graphs).
func (t *swDistTab) enabled() bool { return t != nil && t.dist != nil }

// RackTable groups a single-homed fabric's servers by access switch: rack r
// is every server whose one neighbor is Switches[r]. Racks are numbered in
// order of their lowest server ID. Single-homing makes this a property of
// the graph, not of liveness, so the table never changes.
type RackTable struct {
	// Of maps a NodeID to its rack ordinal; -1 for switches.
	Of []int32
	// Switches maps a rack ordinal to its access switch.
	Switches []topology.NodeID
}

// Racks returns the fabric's rack table, or nil when some server is not
// single-homed. The table is shared; callers must not modify it. Memoizing
// oracles build it once; NewUncached builds it per call.
func (o *Oracle) Racks() *RackTable {
	if !o.topo.ServersSingleHomed() {
		return nil
	}
	if !o.cached {
		return o.buildRacks()
	}
	if o.racks == nil {
		o.racks = o.buildRacks()
	}
	return o.racks
}

func (o *Oracle) buildRacks() *RackTable {
	t := &RackTable{Of: make([]int32, o.topo.NumNodes())}
	rackOf := make(map[topology.NodeID]int32)
	for i := range t.Of {
		x := topology.NodeID(i)
		t.Of[i] = -1
		if !o.topo.Node(x).IsServer() {
			continue
		}
		acc := o.topo.Neighbors(x)[0]
		r, ok := rackOf[acc]
		if !ok {
			r = int32(len(t.Switches))
			rackOf[acc] = r
			t.Switches = append(t.Switches, acc)
		}
		t.Of[i] = r
	}
	return t
}

// RackDists returns dst, regrown to one entry per rack of Racks(), holding
// the hop distance from src to each rack's access switch (-1 when
// unreachable): O(racks) rows where DistRow is O(nodes). While structural
// answers hold they come from the switch-pair table through the same
// single-homed lift Algorithm 1's segment costs use, so every entry is the
// integer StructuralDist returns; otherwise they are read off DistRow,
// which keeps NewUncached a pure-BFS reference. A server's distance to
// another server s of rack r is then 0 when s == src and 1 + dst[r]
// otherwise. The fabric must be single-homed.
func (o *Oracle) RackDists(dst []int32, src topology.NodeID) []int32 {
	rk := o.Racks()
	if cap(dst) < len(rk.Switches) {
		dst = make([]int32, len(rk.Switches))
	}
	dst = dst[:len(rk.Switches)]
	if o.structuralOK() {
		if t := o.switchTable(); t.enabled() {
			if so, lift := o.liftEndpoint(t, src); so >= 0 {
				row := t.dist[int(so)*t.s : (int(so)+1)*t.s]
				for r, a := range rk.Switches {
					dst[r] = lift + row[t.idx[a]]
				}
				return dst
			}
		}
	}
	row := o.DistRow(src)
	for r, a := range rk.Switches {
		dst[r] = row[a]
	}
	return dst
}
