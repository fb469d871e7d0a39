// Package topology models hierarchical data-center network topologies:
// servers, typed switches with processing capacities, and links with
// bandwidth and latency. It provides the multi-tier architectures the paper
// evaluates (Tree, Fat-Tree, VL2, BCube) plus generic graph queries used by
// the policy optimizer: BFS distances, shortest-path enumeration, and the
// layered shortest-path DAG that defines which switches may serve each stage
// of a shuffle flow's route.
//
// All topologies are undirected graphs. Node identity is a dense integer
// NodeID so that per-node state elsewhere in the system can live in slices.
package topology

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node (server or switch) within one Topology.
// IDs are dense: 0..NumNodes()-1.
type NodeID int

// None is the zero-value "no node" sentinel. Valid node IDs start at 0, so
// None is deliberately negative.
const None NodeID = -1

// Kind discriminates servers from switches.
type Kind uint8

const (
	// KindServer is a host machine that can run containers.
	KindServer Kind = iota
	// KindSwitch is a network switch at some tier of the hierarchy.
	KindSwitch
)

// String returns "server" or "switch".
func (k Kind) String() string {
	switch k {
	case KindServer:
		return "server"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Common switch type names used by the built-in architectures. The policy
// model matches switches by this string (w.type in the paper), so alternative
// candidates for a policy stage must share the type.
const (
	TypeAccess       = "access"
	TypeAggregation  = "aggregation"
	TypeCore         = "core"
	TypeIntermediate = "intermediate" // VL2 intermediate tier
	TypeLevel        = "level"        // BCube level switches: TypeLevel+"0", "1", ...
)

// Node is a vertex of the topology graph.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// Type is the switch type (w.type in the paper); empty for servers.
	Type string
	// Tier is the hierarchy level for switches: 0 = access (closest to
	// servers), growing upward. Servers have Tier -1.
	Tier int
	// Capacity is the switch processing capacity (w.capacity): the maximum
	// aggregate flow rate, in data units per time unit, the switch can carry.
	// Zero or negative for servers. math.Inf(1) means unconstrained.
	Capacity float64
}

// IsServer reports whether the node is a server.
func (n Node) IsServer() bool { return n.Kind == KindServer }

// IsSwitch reports whether the node is a switch.
func (n Node) IsSwitch() bool { return n.Kind == KindSwitch }

// Link is an undirected edge between two nodes.
type Link struct {
	A, B NodeID
	// Bandwidth in data units per time unit (e.g. GB/s).
	Bandwidth float64
	// Latency is the per-traversal delay contribution of this link, in the
	// paper's abstract switch-delay unit T.
	Latency float64
}

// Other returns the endpoint of l that is not n. It panics if n is not an
// endpoint of l.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("topology: node %d is not an endpoint of link %d-%d", n, l.A, l.B))
}

// Topology is an immutable-after-build network graph. Build one with the
// architecture constructors (NewTree, NewFatTree, NewVL2, NewBCube) or
// assemble a custom one with NewBuilder.
type Topology struct {
	name     string
	nodes    []Node
	links    []Link
	adj      [][]NodeID       // adjacency lists, sorted
	linkIdx  map[linkKey]int  // canonicalized endpoint pair -> index into links
	servers  []NodeID         // sorted
	switches []NodeID         // sorted
	dist     map[NodeID][]int // BFS distance cache, filled lazily per source
	// version counts in-place mutations (switch capacity, link bandwidth).
	// The controller's capacity bound refreshes when it moves; the graph
	// structure itself never changes, so distance/path caches stay valid
	// across versions.
	version uint64
	// alive is the liveness mask for failure injection: alive[i] == false
	// means node i has crashed and must not appear on any path. nil means
	// every node is alive (the common case; no per-hop overhead). Dead
	// nodes change the EFFECTIVE structure — BFS, shortest paths, DAGs and
	// type inventories all route around them — so liveness mutations get
	// their own version counter, which netstate's structure caches follow,
	// and clear the local BFS cache.
	alive       []bool
	liveVersion uint64
	numDead     int
	// coords and arch are the structural coordinate oracle emitted by the
	// architecture generators (see coords.go); arch.family stays
	// FamilyIrregular for hand-built topologies. singleHomed caches whether
	// every server has exactly one (switch) neighbor.
	coords      []coordRec
	arch        structure
	singleHomed bool
}

type linkKey struct{ a, b NodeID }

func canonicalKey(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Name returns the human-readable architecture name ("tree", "fattree", ...).
func (t *Topology) Name() string { return t.name }

// NumNodes returns the total node count (servers + switches).
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumServers returns the server count.
func (t *Topology) NumServers() int { return len(t.servers) }

// NumSwitches returns the switch count.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumLinks returns the link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Version returns the mutation counter: it increments on every in-place
// parameter change (SetSwitchCapacity, SetLinkBandwidth). Capacity-derived
// state (the controller's least-capacity bound) refreshes when it moves.
// The graph structure is immutable after Build, so hop distances and
// shortest paths are version-independent.
func (t *Topology) Version() uint64 { return t.version }

// Node returns the node with the given ID. It panics on out-of-range IDs.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Valid reports whether id names a node of t.
func (t *Topology) Valid(id NodeID) bool { return id >= 0 && int(id) < len(t.nodes) }

// Servers returns the IDs of all servers, in ascending order. The returned
// slice must not be modified.
func (t *Topology) Servers() []NodeID { return t.servers }

// Switches returns the IDs of all switches, in ascending order. The returned
// slice must not be modified.
func (t *Topology) Switches() []NodeID { return t.switches }

// Links returns all links. The returned slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// Neighbors returns the adjacency list of id, sorted ascending. The returned
// slice must not be modified.
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.adj[id] }

// Degree returns the number of links incident to id.
func (t *Topology) Degree(id NodeID) int { return len(t.adj[id]) }

// SetSwitchCapacity overrides a switch's processing capacity in place. It
// exists for failure injection — degrading or restoring a switch mid-
// experiment — and returns an error for non-switches. Blessed epochbump
// mutator: taalint proves the parameter-version bump on every mutating
// path, and rejects capacity writes anywhere else.
func (t *Topology) SetSwitchCapacity(id NodeID, capacity float64) error {
	if !t.Valid(id) || !t.nodes[id].IsSwitch() {
		return fmt.Errorf("topology: node %d is not a switch", id)
	}
	if capacity < 0 {
		return fmt.Errorf("topology: negative capacity %v", capacity)
	}
	t.nodes[id].Capacity = capacity
	t.version++
	return nil
}

// SetLinkBandwidth overrides a link's bandwidth in place (failure
// injection: degraded or restored links). Blessed epochbump mutator: see
// SetSwitchCapacity.
func (t *Topology) SetLinkBandwidth(a, b NodeID, bandwidth float64) error {
	i, ok := t.linkIdx[canonicalKey(a, b)]
	if !ok {
		return fmt.Errorf("topology: no link %d-%d", a, b)
	}
	if bandwidth <= 0 {
		return fmt.Errorf("topology: non-positive bandwidth %v", bandwidth)
	}
	t.links[i].Bandwidth = bandwidth
	t.version++
	return nil
}

// Alive reports whether node id is live. Nodes are alive unless crashed via
// SetNodeAlive; out-of-range IDs report false.
func (t *Topology) Alive(id NodeID) bool {
	if !t.Valid(id) {
		return false
	}
	return t.alive == nil || t.alive[id]
}

// AllAlive reports whether no node is currently crashed.
func (t *Topology) AllAlive() bool { return t.numDead == 0 }

// LivenessVersion counts liveness mutations (SetNodeAlive flips). Unlike
// Version it signals EFFECTIVE STRUCTURE change: a dead node disappears
// from paths, DAGs and type inventories, so structure-derived caches
// (netstate distance rows, shortest paths, templates, stage lists) must be
// rebuilt when it moves.
func (t *Topology) LivenessVersion() uint64 { return t.liveVersion }

// SetNodeAlive crashes (alive=false) or recovers (alive=true) a node in
// place — the fault-injection entry point for switch and server crashes.
// A no-op flip (already in the requested state) does not bump the liveness
// version. Crashing nodes can disconnect the graph; queries then report
// the affected pairs as unreachable rather than failing. Blessed epochbump
// mutator: taalint proves the liveness-version bump on every mutating path
// — the one bump whose omission once served stale routes at runtime.
func (t *Topology) SetNodeAlive(id NodeID, alive bool) error {
	if !t.Valid(id) {
		return fmt.Errorf("topology: unknown node %d", id)
	}
	if t.Alive(id) == alive {
		return nil
	}
	if t.alive == nil {
		t.alive = make([]bool, len(t.nodes))
		for i := range t.alive {
			t.alive[i] = true
		}
	}
	t.alive[id] = alive
	if alive {
		t.numDead--
	} else {
		t.numDead++
	}
	t.liveVersion++
	// The BFS cache below encodes paths through the old liveness mask.
	t.dist = make(map[NodeID][]int)
	return nil
}

// LinkIndex returns the dense index of the link between a and b in Links(),
// if one exists. Dense link indices let flow-level simulators key per-link
// state in slices instead of maps.
func (t *Topology) LinkIndex(a, b NodeID) (int, bool) {
	i, ok := t.linkIdx[canonicalKey(a, b)]
	return i, ok
}

// Link returns the link between a and b, if one exists.
func (t *Topology) Link(a, b NodeID) (Link, bool) {
	i, ok := t.linkIdx[canonicalKey(a, b)]
	if !ok {
		return Link{}, false
	}
	return t.links[i], true
}

// Adjacent reports whether a and b share a link.
func (t *Topology) Adjacent(a, b NodeID) bool {
	_, ok := t.linkIdx[canonicalKey(a, b)]
	return ok
}

// SwitchesOfType returns all live switches whose Type equals typ,
// ascending. Crashed switches are excluded: they cannot serve any policy
// stage.
func (t *Topology) SwitchesOfType(typ string) []NodeID {
	var out []NodeID
	for _, id := range t.switches {
		if t.nodes[id].Type == typ && t.Alive(id) {
			out = append(out, id)
		}
	}
	return out
}

// AccessSwitch returns the access switch a server attaches to: its unique
// switch neighbor of lowest tier. It returns None for non-servers or isolated
// servers.
func (t *Topology) AccessSwitch(server NodeID) NodeID {
	if !t.Valid(server) || !t.nodes[server].IsServer() {
		return None
	}
	best := None
	bestTier := math.MaxInt
	for _, nb := range t.adj[server] {
		if !t.Alive(nb) {
			continue
		}
		if n := t.nodes[nb]; n.IsSwitch() && n.Tier < bestTier {
			best, bestTier = nb, n.Tier
		}
	}
	return best
}

// Dist returns the hop distance (number of links) on a shortest path between
// a and b, or -1 if they are disconnected.
func (t *Topology) Dist(a, b NodeID) int {
	d := t.bfs(a)
	return d[b]
}

// bfs returns (and caches) BFS distances from src; unreachable nodes get
// -1. Dead nodes are never traversed: a dead source reaches nothing, and
// paths route around dead intermediates (SetNodeAlive clears this cache on
// every liveness flip).
func (t *Topology) bfs(src NodeID) []int {
	if d, ok := t.dist[src]; ok {
		return d
	}
	d := make([]int, len(t.nodes))
	for i := range d {
		d[i] = -1
	}
	if !t.Alive(src) {
		t.dist[src] = d
		return d
	}
	d[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.adj[u] {
			if d[v] == -1 && t.Alive(v) {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	t.dist[src] = d
	return d
}

// Connected reports whether every node is reachable from every other.
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return true
	}
	d := t.bfs(0)
	for _, x := range d {
		if x < 0 {
			return false
		}
	}
	return true
}

// ShortestPath returns one shortest path from src to dst, inclusive of both
// endpoints, preferring lower node IDs at ties. It returns nil if src and dst
// are disconnected.
func (t *Topology) ShortestPath(src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	dd := t.bfs(dst)
	if dd[src] < 0 {
		return nil
	}
	path := []NodeID{src}
	cur := src
	for cur != dst {
		next := None
		for _, nb := range t.adj[cur] {
			if dd[nb] == dd[cur]-1 {
				next = nb
				break // adjacency is sorted, so this is the lowest-ID choice
			}
		}
		if next == None {
			return nil // unreachable given dd[src] >= 0; defensive
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// PathDAG is the DAG of all shortest paths between a fixed (src, dst) pair.
// Stage 0 holds only src and the last stage only dst; Stages[i] lists every
// node that appears at hop i on some shortest path. Any walk that picks one
// node per stage, moving only between adjacent picks, is a valid shortest
// route — this is exactly the set of alternatives the paper's network-policy
// optimizer chooses among when it "reschedules the i-th switch of a policy".
type PathDAG struct {
	Src, Dst NodeID
	// Stages[i] lists the candidate nodes for hop i, ascending. len(Stages)
	// == hop distance + 1.
	Stages [][]NodeID
}

// Hops returns the number of links on any path through the DAG.
func (d *PathDAG) Hops() int { return len(d.Stages) - 1 }

// SwitchStages returns the stages strictly between the endpoints — the
// positions a policy's switch list covers.
func (d *PathDAG) SwitchStages() [][]NodeID {
	if len(d.Stages) < 2 {
		return nil
	}
	return d.Stages[1 : len(d.Stages)-1]
}

// ShortestPathDAG computes the all-shortest-paths DAG between src and dst.
// A node v belongs to stage i iff dist(src,v) == i and dist(v,dst) == L-i,
// where L = dist(src,dst). It returns nil if src and dst are disconnected.
func (t *Topology) ShortestPathDAG(src, dst NodeID) *PathDAG {
	ds := t.bfs(src)
	dd := t.bfs(dst)
	total := ds[dst]
	if total < 0 {
		return nil
	}
	dag := &PathDAG{Src: src, Dst: dst, Stages: make([][]NodeID, total+1)}
	for id := range t.nodes {
		n := NodeID(id)
		if ds[n] >= 0 && dd[n] >= 0 && ds[n]+dd[n] == total {
			dag.Stages[ds[n]] = append(dag.Stages[ds[n]], n)
		}
	}
	for _, s := range dag.Stages {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return dag
}

// PathLatency sums the per-switch and per-link delay along a node path,
// expressed in the paper's unit T: each switch traversed contributes 1 T
// (as in the §2.3 case study) and each link contributes its Latency.
func (t *Topology) PathLatency(path []NodeID) float64 {
	var total float64
	for i, id := range path {
		if t.nodes[id].IsSwitch() {
			total += 1
		}
		if i+1 < len(path) {
			if l, ok := t.Link(id, path[i+1]); ok {
				total += l.Latency
			}
		}
	}
	return total
}

// ValidatePath reports an error unless path is a walk over existing links
// from path[0] to path[len-1] with no immediate repetitions.
func (t *Topology) ValidatePath(path []NodeID) error {
	if len(path) == 0 {
		return fmt.Errorf("topology: empty path")
	}
	for i, id := range path {
		if !t.Valid(id) {
			return fmt.Errorf("topology: path node %d out of range", id)
		}
		if i == 0 {
			continue
		}
		if path[i-1] == id {
			return fmt.Errorf("topology: path repeats node %d at position %d", id, i)
		}
		if !t.Adjacent(path[i-1], id) {
			return fmt.Errorf("topology: path nodes %d and %d are not adjacent", path[i-1], id)
		}
	}
	return nil
}

// Builder incrementally assembles a Topology.
type Builder struct {
	t   *Topology
	err error
}

// NewBuilder returns an empty Builder for a topology with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{t: &Topology{
		name:    name,
		linkIdx: make(map[linkKey]int),
		dist:    make(map[NodeID][]int),
	}}
}

// AddServer appends a server node and returns its ID.
func (b *Builder) AddServer(name string) NodeID {
	id := NodeID(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, Node{ID: id, Kind: KindServer, Name: name, Tier: -1})
	b.t.adj = append(b.t.adj, nil)
	b.t.coords = append(b.t.coords, coordRec{pod: -1, idx: -1})
	b.t.servers = append(b.t.servers, id)
	return id
}

// setCoord records the structural coordinate of a node; only the
// architecture generators call it.
func (b *Builder) setCoord(id NodeID, pod, idx int) {
	b.t.coords[id] = coordRec{pod: int32(pod), idx: int32(idx)}
}

// setStructure records the architecture descriptor; only the architecture
// generators call it, after every node has its coordinate. It adds the
// shared per-class stage templates and, for trees, each access switch's
// ancestor chain.
func (b *Builder) setStructure(s structure) {
	if s.family != FamilyBCube {
		s.templates = make([][]string, len(s.types))
		for c := range s.templates {
			tmpl := make([]string, 2*c+1)
			for i := 0; i <= c; i++ {
				tmpl[i], tmpl[2*c-i] = s.types[i], s.types[i]
			}
			s.templates[c] = tmpl
		}
	}
	if s.family == FamilyTree {
		depth := len(s.types)
		byTier := make([][]NodeID, depth) // [tier][index] → switch
		for _, id := range b.t.switches {
			tier, idx := b.t.nodes[id].Tier, int(b.t.coords[id].idx)
			for len(byTier[tier]) <= idx {
				byTier[tier] = append(byTier[tier], None)
			}
			byTier[tier][idx] = id
		}
		s.anc = make([]NodeID, len(byTier[0])*depth)
		for a := range byTier[0] {
			for tier, i := 0, a; tier < depth; tier++ {
				if tier > 0 {
					i /= s.fan[tier]
				}
				s.anc[a*depth+tier] = byTier[tier][i]
			}
		}
	}
	b.t.arch = s
}

// AddSwitch appends a switch node with the given type, tier and capacity and
// returns its ID. Pass math.Inf(1) for an unconstrained switch.
func (b *Builder) AddSwitch(name, typ string, tier int, capacity float64) NodeID {
	id := NodeID(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, Node{
		ID: id, Kind: KindSwitch, Name: name, Type: typ, Tier: tier, Capacity: capacity,
	})
	b.t.adj = append(b.t.adj, nil)
	b.t.coords = append(b.t.coords, coordRec{pod: -1, idx: -1})
	b.t.switches = append(b.t.switches, id)
	return id
}

// Connect links a and b with the given bandwidth and latency. Duplicate or
// self links record an error surfaced by Build.
func (b *Builder) Connect(a, c NodeID, bandwidth, latency float64) {
	if b.err != nil {
		return
	}
	if a == c {
		b.err = fmt.Errorf("topology: self-link on node %d", a)
		return
	}
	if !b.t.Valid(a) || !b.t.Valid(c) {
		b.err = fmt.Errorf("topology: link endpoint out of range (%d, %d)", a, c)
		return
	}
	key := canonicalKey(a, c)
	if _, dup := b.t.linkIdx[key]; dup {
		b.err = fmt.Errorf("topology: duplicate link %d-%d", a, c)
		return
	}
	if bandwidth <= 0 {
		b.err = fmt.Errorf("topology: non-positive bandwidth on link %d-%d", a, c)
		return
	}
	b.t.linkIdx[key] = len(b.t.links)
	b.t.links = append(b.t.links, Link{A: a, B: c, Bandwidth: bandwidth, Latency: latency})
	b.t.adj[a] = append(b.t.adj[a], c)
	b.t.adj[c] = append(b.t.adj[c], a)
}

// Build finalizes and returns the topology, or the first error recorded
// during construction.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.t.adj {
		a := b.t.adj[i]
		sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
	}
	if len(b.t.servers) == 0 {
		return nil, fmt.Errorf("topology: %q has no servers", b.t.name)
	}
	if !b.t.Connected() {
		return nil, fmt.Errorf("topology: %q is not connected", b.t.name)
	}
	b.t.singleHomed = true
	for _, s := range b.t.servers {
		if len(b.t.adj[s]) != 1 || !b.t.nodes[b.t.adj[s][0]].IsSwitch() {
			b.t.singleHomed = false
			break
		}
	}
	return b.t, nil
}

// MustBuild is Build that panics on error; for use by the architecture
// constructors whose inputs are validated beforehand.
func (b *Builder) MustBuild() *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
