// Package yarn reproduces the Hadoop YARN resource-management layer the
// paper implements Hit-Scheduler against (§6): applications negotiate
// containers with a ResourceManager through ResourceRequests; node
// heartbeats drive allocation; and the paper's Hit-ResourceRequest variant
// (§6.2) carries a preferred host — the placement the topology-aware
// optimizer computed — which the ResourceManager honors when the preferred
// node heartbeats with spare resources ("getContainer(Hit-ResourceRequest,
// node)", §6.3).
//
// The model is deliberately single-threaded and deterministic: heartbeats
// are explicit method calls, so simulations and tests control the exact
// interleaving.
package yarn

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// AnyHost is the ResourceName wildcard: any node may satisfy the request.
const AnyHost = "*"

// ResourceRequest mirrors YARN's resource ask. A request with ResourceName
// naming a host is the paper's Hit-ResourceRequest: the preferred machine
// for a specific task, read from mapred.job.topologyaware.taskdict (§6.2).
type ResourceRequest struct {
	// Priority orders requests within an application (lower = earlier).
	Priority int
	// ResourceName is AnyHost, a host name (preferred server), or a rack
	// name of the form "/rack-<accessSwitchID>".
	ResourceName string
	// Capability is the resource ask per container.
	Capability cluster.Resources
	// NumContainers of this shape requested.
	NumContainers int
	// RelaxLocality permits falling back to rack-mates and then to any node
	// when the preferred host cannot satisfy the ask. Hit-ResourceRequests
	// set it so jobs make progress under pressure.
	RelaxLocality bool
}

// Validate checks the request's shape.
func (r *ResourceRequest) Validate() error {
	if r.NumContainers <= 0 {
		return fmt.Errorf("yarn: request needs NumContainers >= 1, got %d", r.NumContainers)
	}
	if r.Capability.CPU < 0 || r.Capability.Memory < 0 {
		return fmt.Errorf("yarn: negative capability %v", r.Capability)
	}
	if r.ResourceName == "" {
		return fmt.Errorf("yarn: empty ResourceName (use AnyHost)")
	}
	return nil
}

// Allocation is one granted container.
type Allocation struct {
	Container cluster.ContainerID
	Node      topology.NodeID
	// Preferred reports whether the grant honored the request's preferred
	// host (always true for AnyHost requests).
	Preferred bool
	Priority  int
}

// AppID identifies a submitted application.
type AppID int

// pendingRequest tracks an unsatisfied ask. skips counts heartbeats that
// passed without serving it — YARN's "scheduling opportunities", which
// gate locality relaxation exactly as delay scheduling prescribes.
type pendingRequest struct {
	req       ResourceRequest
	remaining int
	seq       int // submission order tiebreak
	skips     int
}

type appState struct {
	id          AppID
	name        string
	pending     []*pendingRequest
	allocations []Allocation
	containers  map[cluster.ContainerID]bool
	nextSeq     int
}

// ResourceManager grants containers on a cluster in response to node
// heartbeats, honoring preferred hosts the way §6.3 describes. A request
// with RelaxLocality waits RelaxAfter scheduling opportunities before
// accepting rack-mates of its preferred host and twice that before
// accepting any node (YARN's locality delay).
type ResourceManager struct {
	cl   *cluster.Cluster
	topo *topology.Topology
	// oracle answers rack (access-switch) queries; all path/distance
	// lookups go through netstate rather than the raw topology.
	oracle *netstate.Oracle
	apps   map[AppID]*appState
	order  []AppID // FIFO across applications
	nextID AppID
	// hostByName resolves ResourceName host strings.
	hostByName map[string]topology.NodeID
	// RelaxAfter is the scheduling-opportunity budget before locality
	// relaxation; defaults to the server count (one full sweep).
	RelaxAfter int
}

// NewResourceManager wraps a cluster.
func NewResourceManager(cl *cluster.Cluster) (*ResourceManager, error) {
	if cl == nil {
		return nil, fmt.Errorf("yarn: nil cluster")
	}
	rm := &ResourceManager{
		cl:         cl,
		topo:       cl.Topology(),
		oracle:     netstate.New(cl.Topology()),
		apps:       make(map[AppID]*appState),
		hostByName: make(map[string]topology.NodeID),
	}
	for _, s := range cl.Servers() {
		rm.hostByName[rm.topo.Node(s).Name] = s
	}
	rm.RelaxAfter = cl.Topology().NumServers()
	return rm, nil
}

// RackOf returns the rack name of a server ("/rack-<accessSwitchID>"), or
// "" for non-servers.
func (rm *ResourceManager) RackOf(server topology.NodeID) string {
	acc := rm.oracle.AccessSwitch(server)
	if acc == topology.None {
		return ""
	}
	return fmt.Sprintf("/rack-%d", acc)
}

// HostName returns a server's name.
func (rm *ResourceManager) HostName(server topology.NodeID) string {
	if !rm.topo.Valid(server) {
		return ""
	}
	return rm.topo.Node(server).Name
}

// Submit registers an application and returns its handle.
func (rm *ResourceManager) Submit(name string) *Application {
	id := rm.nextID
	rm.nextID++
	st := &appState{id: id, name: name, containers: make(map[cluster.ContainerID]bool)}
	rm.apps[id] = st
	rm.order = append(rm.order, id)
	return &Application{rm: rm, id: id}
}

// Application is an ApplicationMaster's handle onto the ResourceManager.
type Application struct {
	rm *ResourceManager
	id AppID
}

// ID returns the application ID.
func (a *Application) ID() AppID { return a.id }

// Ask submits a ResourceRequest (the AM → RM allocate call).
func (a *Application) Ask(req ResourceRequest) error {
	if err := req.Validate(); err != nil {
		return err
	}
	st, ok := a.rm.apps[a.id]
	if !ok {
		return fmt.Errorf("yarn: application %d not registered", a.id)
	}
	if req.ResourceName != AnyHost && req.ResourceName[0] != '/' {
		if _, ok := a.rm.hostByName[req.ResourceName]; !ok {
			return fmt.Errorf("yarn: unknown preferred host %q", req.ResourceName)
		}
	}
	st.pending = append(st.pending, &pendingRequest{req: req, remaining: req.NumContainers, seq: st.nextSeq})
	st.nextSeq++
	sort.SliceStable(st.pending, func(i, j int) bool {
		if st.pending[i].req.Priority != st.pending[j].req.Priority {
			return st.pending[i].req.Priority < st.pending[j].req.Priority
		}
		return st.pending[i].seq < st.pending[j].seq
	})
	return nil
}

// TakeAllocations drains and returns the application's granted containers.
func (a *Application) TakeAllocations() []Allocation {
	st := a.rm.apps[a.id]
	if st == nil {
		return nil
	}
	out := st.allocations
	st.allocations = nil
	return out
}

// Release returns a container's resources to the cluster (task finished).
func (a *Application) Release(c cluster.ContainerID) error {
	st := a.rm.apps[a.id]
	if st == nil || !st.containers[c] {
		return fmt.Errorf("yarn: application %d does not own container %d", a.id, c)
	}
	delete(st.containers, c)
	return a.rm.cl.Unplace(c)
}

// matchLevel classifies how well a node satisfies a request's locality.
type matchLevel int

const (
	matchNone matchLevel = iota
	matchAny
	matchRack
	matchHost
)

// match classifies how node relates to the request's locality preference,
// honoring the skip budget: lower-locality matches only open up after the
// request has been passed over enough times.
func (rm *ResourceManager) match(p *pendingRequest, node topology.NodeID) matchLevel {
	req := &p.req
	switch {
	case req.ResourceName == AnyHost:
		return matchAny
	case req.ResourceName[0] == '/':
		// Rack-named request: the rack IS the preference; relaxation to any
		// node after one budget.
		if rm.RackOf(node) == req.ResourceName {
			return matchRack
		}
		if req.RelaxLocality && p.skips >= rm.relaxAfter() {
			return matchAny
		}
	default:
		pref, ok := rm.hostByName[req.ResourceName]
		if !ok {
			return matchNone
		}
		if pref == node {
			return matchHost
		}
		if !req.RelaxLocality {
			return matchNone
		}
		if rm.RackOf(pref) == rm.RackOf(node) {
			if p.skips >= rm.relaxAfter() {
				return matchRack
			}
			return matchNone
		}
		if p.skips >= 2*rm.relaxAfter() {
			return matchAny
		}
	}
	return matchNone
}

func (rm *ResourceManager) relaxAfter() int {
	if rm.RelaxAfter > 0 {
		return rm.RelaxAfter
	}
	return rm.topo.NumServers()
}

// fullyRelaxed reports whether waiting longer cannot widen the request's
// candidate set.
func (rm *ResourceManager) fullyRelaxed(p *pendingRequest) bool {
	switch {
	case p.req.ResourceName == AnyHost:
		return true
	case !p.req.RelaxLocality:
		return true
	case p.req.ResourceName[0] == '/':
		return p.skips >= rm.relaxAfter()
	default:
		return p.skips >= 2*rm.relaxAfter()
	}
}

// Heartbeat processes one NodeManager heartbeat: the RM walks applications
// FIFO and grants containers on this node to the best-matching pending
// requests until the node has no spare resources. It returns the number of
// containers granted.
func (rm *ResourceManager) Heartbeat(node topology.NodeID) (int, error) {
	if !rm.topo.Valid(node) || !rm.topo.Node(node).IsServer() {
		return 0, fmt.Errorf("yarn: heartbeat from non-server node %d", node)
	}
	granted := 0
	for _, id := range rm.order {
		st := rm.apps[id]
		// Grant host-preferring requests first, then rack, then any.
		for _, level := range []matchLevel{matchHost, matchRack, matchAny} {
			for _, p := range st.pending {
				if p.remaining == 0 {
					continue
				}
				if rm.match(p, node) != level {
					continue
				}
				for p.remaining > 0 {
					ct, err := rm.cl.NewContainer(p.req.Capability)
					if err != nil {
						return granted, err
					}
					if err := rm.cl.Place(ct.ID, node); err != nil {
						// Node full (or capability larger than free room):
						// drop the container record and stop trying here.
						break
					}
					p.remaining--
					st.containers[ct.ID] = true
					st.allocations = append(st.allocations, Allocation{
						Container: ct.ID,
						Node:      node,
						Preferred: level == matchHost || p.req.ResourceName == AnyHost,
						Priority:  p.req.Priority,
					})
					granted++
				}
			}
		}
		// Unserved requests consumed a scheduling opportunity.
		for _, p := range st.pending {
			if p.remaining > 0 {
				p.skips++
			}
		}
		st.pending = compactPending(st.pending)
	}
	return granted, nil
}

func compactPending(ps []*pendingRequest) []*pendingRequest {
	out := ps[:0]
	for _, p := range ps {
		if p.remaining > 0 {
			out = append(out, p)
		}
	}
	return out
}

// HeartbeatAll heartbeats every server once, in ascending node order, and
// returns the total grants. Driving it repeatedly converges to either all
// requests satisfied or a fixed point (cluster full).
func (rm *ResourceManager) HeartbeatAll() (int, error) {
	total := 0
	for _, s := range rm.cl.Servers() {
		n, err := rm.Heartbeat(s)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// RunUntilSatisfied heartbeats all nodes until every application's pending
// count reaches zero or no progress is possible; it returns an error in the
// latter case.
func (rm *ResourceManager) RunUntilSatisfied(maxRounds int) error {
	if maxRounds <= 0 {
		maxRounds = 100
	}
	for round := 0; round < maxRounds; round++ {
		pending := 0
		for _, id := range rm.order {
			for _, p := range rm.apps[id].pending {
				pending += p.remaining
			}
		}
		if pending == 0 {
			return nil
		}
		granted, err := rm.HeartbeatAll()
		if err != nil {
			return err
		}
		if granted == 0 {
			// A barren sweep still helps while some request can relax
			// further; once every request is fully relaxed, it is final.
			stuck := true
			for _, id := range rm.order {
				for _, p := range rm.apps[id].pending {
					if p.remaining > 0 && !rm.fullyRelaxed(p) {
						stuck = false
					}
				}
			}
			if stuck {
				return fmt.Errorf("yarn: %d container(s) unsatisfiable (cluster full or locality too strict)", pending)
			}
		}
	}
	return fmt.Errorf("yarn: requests not satisfied after %d rounds", maxRounds)
}
