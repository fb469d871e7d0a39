// Package flow models shuffle traffic the way the paper's TAA formulation
// does (§3): a Flow carries intermediate bytes from the container running a
// Map task to the container running a Reduce task; a Policy is the ordered,
// typed switch list the flow must traverse; and the cost model implements
// the routing path (Eq. 1) and the shuffle cost (Eq. 2). The rescheduling
// utilities of §5.1 (Eq. 5, 6, 7, 10, 11), which tests check the
// separability of, live in internal/reference.
package flow

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// ID identifies a flow within one scheduling problem. IDs are
// non-negative: the controller keeps its per-flow state in tables indexed
// by ID, and every producer (scheduler.NewJobRequest, both simulator
// loops, hitplugin) numbers flows sequentially from 0.
type ID int

// Flow is one map→reduce shuffle transfer (f_i in the paper).
type Flow struct {
	ID ID
	// JobID, MapIndex, ReduceIndex locate the flow in its job's shuffle
	// matrix.
	JobID                 int
	MapIndex, ReduceIndex int
	// Src is the container hosting the producing Map task (f_i.src); Dst
	// hosts the consuming Reduce task (f_i.dst).
	Src, Dst cluster.ContainerID
	// SizeGB is the bytes transferred (f_i.size).
	SizeGB float64
	// Rate is the flow's demand on switch capacity (f_i.rate), in the same
	// units as topology switch capacities.
	Rate float64
}

// Validate checks basic sanity.
func (f *Flow) Validate() error {
	if f.ID < 0 {
		return fmt.Errorf("flow %d: negative ID", f.ID)
	}
	if f.Src == f.Dst {
		return fmt.Errorf("flow %d: src container == dst container (%d)", f.ID, f.Src)
	}
	if f.SizeGB < 0 || f.Rate < 0 {
		return fmt.Errorf("flow %d: negative size/rate (%v, %v)", f.ID, f.SizeGB, f.Rate)
	}
	return nil
}

// Policy is the network policy p_i for one flow: the ordered switch list the
// flow traverses (p.list) with the required switch type at each position
// (p.type). A flow between two containers on the same server has an empty
// policy.
//
// A Policy is immutable once built: whoever builds one fills List and
// Types and then never writes them again, so the controller installs the
// caller's pointer and a solve can hand the same value to several
// holders. Types is usually the type template the topology and the
// netstate oracle share among every flow of one tier class; a write to
// it would corrupt all of them. taalint's policyfreeze check enforces
// this outside this package.
type Policy struct {
	Flow  ID
	List  []topology.NodeID
	Types []string
}

// Len returns p.len, the number of switches on the policy.
func (p *Policy) Len() int { return len(p.List) }

// Satisfied implements the paper's policy-satisfaction predicate: every
// required position is filled by a switch of the correct type, in order
// (p_i.type[j] == w.type for all j). It also checks the listed nodes are
// switches.
func (p *Policy) Satisfied(topo *topology.Topology) error {
	if len(p.List) != len(p.Types) {
		return fmt.Errorf("policy for flow %d: %d switches but %d types", p.Flow, len(p.List), len(p.Types))
	}
	for j, w := range p.List {
		if !topo.Valid(w) {
			return fmt.Errorf("policy for flow %d: invalid node %d at position %d", p.Flow, w, j)
		}
		n := topo.Node(w)
		if !n.IsSwitch() {
			return fmt.Errorf("policy for flow %d: node %d at position %d is not a switch", p.Flow, w, j)
		}
		if n.Type != p.Types[j] {
			return fmt.Errorf("policy for flow %d: switch %d has type %q at position %d, want %q",
				p.Flow, w, n.Type, j, p.Types[j])
		}
	}
	return nil
}

// PolicyFromPath builds a policy from a full node path (server, switches...,
// server) by extracting the switch positions and recording their types.
func PolicyFromPath(topo *topology.Topology, f ID, path []topology.NodeID) *Policy {
	p := &Policy{Flow: f}
	for _, n := range path {
		if topo.Node(n).IsSwitch() {
			p.List = append(p.List, n)
			p.Types = append(p.Types, topo.Node(n).Type)
		}
	}
	return p
}

// Locator resolves a container to its hosting server; the cluster type
// satisfies this via a small adapter, and schedulers provide tentative
// assignments without mutating the cluster.
type Locator interface {
	ServerOf(cluster.ContainerID) topology.NodeID
}

// LocatorFunc adapts a function to the Locator interface.
type LocatorFunc func(cluster.ContainerID) topology.NodeID

// ServerOf calls the function.
func (fn LocatorFunc) ServerOf(c cluster.ContainerID) topology.NodeID { return fn(c) }

// ClusterLocator returns a Locator reading live placements from cl.
func ClusterLocator(cl *cluster.Cluster) Locator {
	return LocatorFunc(func(c cluster.ContainerID) topology.NodeID {
		ct := cl.Container(c)
		if ct == nil {
			return topology.None
		}
		return ct.Server()
	})
}

// CostModel computes route costs and rescheduling utilities over one
// topology. UnitCost is c_s in Eq. 2 — the cost per unit rate per hop.
// Every hop-distance and latency query goes through a netstate.Oracle —
// never the raw topology — so all consumers share one set of memoized BFS
// tables and one liveness-consistent view (the oraclebypass lint enforces
// this repository-wide).
type CostModel struct {
	oracle   *netstate.Oracle
	UnitCost float64
}

// NewCostModelWithOracle returns a cost model sharing an existing oracle;
// the controller binds its own here so cost queries and policy decisions
// read the same distance tables.
func NewCostModelWithOracle(o *netstate.Oracle) *CostModel {
	return &CostModel{oracle: o, UnitCost: 1}
}

// Oracle returns the bound path/cost oracle.
func (cm *CostModel) Oracle() *netstate.Oracle { return cm.oracle }

// dist resolves a hop distance through the oracle's memoized tables.
func (cm *CostModel) dist(a, b topology.NodeID) int {
	return cm.oracle.Dist(a, b)
}

// SegmentCost is C_k(a, b): the cost of carrying rate between two route
// elements, proportional to their hop distance (adjacent elements cost one
// hop). Disconnected elements yield +Inf-like large cost via distance -1
// guarded to a panic, which indicates a modeling bug rather than a runtime
// condition.
func (cm *CostModel) SegmentCost(rate float64, a, b topology.NodeID) float64 {
	d := cm.dist(a, b)
	if d < 0 {
		panic(fmt.Sprintf("flow: segment %d-%d disconnected", a, b))
	}
	return rate * cm.UnitCost * float64(d)
}

// endpoints resolves a flow's endpoint servers, failing when either is
// unplaced.
func endpoints(f *Flow, loc Locator) (src, dst topology.NodeID, err error) {
	src = loc.ServerOf(f.Src)
	dst = loc.ServerOf(f.Dst)
	if src == topology.None || dst == topology.None {
		return src, dst, fmt.Errorf("flow %d: unplaced endpoint (src %d, dst %d)", f.ID, src, dst)
	}
	return src, dst, nil
}

// RouteNodes materializes Eq. 1: the actual routing path of a flow given
// its policy — source server, the policy's switches in order, destination
// server. It returns an error when either endpoint is unplaced.
func (cm *CostModel) RouteNodes(f *Flow, p *Policy, loc Locator) ([]topology.NodeID, error) {
	src, dst, err := endpoints(f, loc)
	if err != nil {
		return nil, err
	}
	route := make([]topology.NodeID, 0, len(p.List)+2)
	route = append(route, src)
	route = append(route, p.List...)
	route = append(route, dst)
	return route, nil
}

// FlowCost is Eq. 2 for a single flow: the sum of segment costs along its
// actual routing path (RouteNodes), taken segment by segment from source
// to destination without building the route. Same-server flows cost zero.
func (cm *CostModel) FlowCost(f *Flow, p *Policy, loc Locator) (float64, error) {
	src, dst, err := endpoints(f, loc)
	if err != nil {
		return 0, err
	}
	var total float64
	prev := src
	for _, w := range p.List {
		total += cm.SegmentCost(f.Rate, prev, w)
		prev = w
	}
	total += cm.SegmentCost(f.Rate, prev, dst)
	return total, nil
}

// FlowDelay returns the flow's transfer-weighted delay in GB·T: size times
// the route latency (1 T per switch plus link latencies), the quantity the
// §2.3 case study totals (112 GB·T vs 64 GB·T).
func (cm *CostModel) FlowDelay(f *Flow, p *Policy, loc Locator) (float64, error) {
	route, err := cm.RouteNodes(f, p, loc)
	if err != nil {
		return 0, err
	}
	return f.SizeGB * cm.oracle.PathLatency(route), nil
}

// RouteHops returns the number of links on the flow's actual route,
// counting the graph distance between consecutive route elements.
func (cm *CostModel) RouteHops(f *Flow, p *Policy, loc Locator) (int, error) {
	route, err := cm.RouteNodes(f, p, loc)
	if err != nil {
		return 0, err
	}
	hops := 0
	for i := 1; i < len(route); i++ {
		d := cm.dist(route[i-1], route[i])
		if d < 0 {
			return 0, fmt.Errorf("flow %d: disconnected route", f.ID)
		}
		hops += d
	}
	return hops, nil
}

// TotalCost sums FlowCost over a flow set — the TAA objective (Eq. 3).
// policy returns a flow's policy, nil when it has none.
func (cm *CostModel) TotalCost(flows []*Flow, policy func(ID) *Policy, loc Locator) (float64, error) {
	var total float64
	for _, f := range flows {
		p := policy(f.ID)
		if p == nil {
			return 0, fmt.Errorf("flow %d: no policy", f.ID)
		}
		c, err := cm.FlowCost(f, p, loc)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// IncidentFlows appends to each list of into the flows incident to that
// list's container, P(c, *) ∪ P(*, c), in one pass over flows that keeps
// their order. Containers with no key in into are skipped.
func IncidentFlows(into map[cluster.ContainerID][]*Flow, flows []*Flow) {
	for _, f := range flows {
		if l, ok := into[f.Src]; ok {
			into[f.Src] = append(l, f)
		}
		if l, ok := into[f.Dst]; ok {
			into[f.Dst] = append(l, f)
		}
	}
}
