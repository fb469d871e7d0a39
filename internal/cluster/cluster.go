// Package cluster models the compute side of the data center: servers with
// physical resource capacities (q_j in the paper), containers with resource
// demands (r_i), and the allocation bookkeeping A(s_j) the schedulers
// manipulate. It enforces the paper's placement constraints: a container
// lives on at most one server, and the sum of container demands on a server
// never exceeds its capacity (Eq. 8).
package cluster

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// ContainerID identifies a container within one Cluster. IDs are dense:
// 0..NumContainers()-1.
type ContainerID int

// NoContainer is the "no container" sentinel.
const NoContainer ContainerID = -1

// Resources is a physical resource vector (r_i for demands, q_j for server
// capacity). Units are abstract: typical experiments use vcores and MB.
type Resources struct {
	CPU    int
	Memory int
}

// Add returns r + o componentwise.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, Memory: r.Memory + o.Memory}
}

// Sub returns r - o componentwise.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, Memory: r.Memory - o.Memory}
}

// Fits reports whether r + extra stays within capacity c componentwise.
func (r Resources) Fits(extra, c Resources) bool {
	return r.CPU+extra.CPU <= c.CPU && r.Memory+extra.Memory <= c.Memory
}

// IsZero reports whether both components are zero.
func (r Resources) IsZero() bool { return r.CPU == 0 && r.Memory == 0 }

// String formats the vector as "<cpu>c/<mem>m".
func (r Resources) String() string { return fmt.Sprintf("%dc/%dm", r.CPU, r.Memory) }

// Container is a unit of compute allocation; the scheduler binds at most one
// Map or Reduce task to each container (the paper's third constraint).
type Container struct {
	ID     ContainerID
	Demand Resources
	// server the container is placed on; topology.None while unplaced.
	server topology.NodeID
}

// Server returns the hosting server or topology.None.
func (c *Container) Server() topology.NodeID { return c.server }

// Placed reports whether the container has been assigned a server.
func (c *Container) Placed() bool { return c.server != topology.None }

// serverState tracks the per-server allocation. containers is unordered;
// readers that expose it sort.
type serverState struct {
	capacity   Resources
	used       Resources
	containers []ContainerID
}

// Cluster couples a topology's servers with resource capacities and tracks
// container placement. Server state is dense: states[i] belongs to
// serverIDs[i], and ordinal maps a NodeID to that i (-1 for non-servers).
type Cluster struct {
	topo       *topology.Topology
	ordinal    []int32
	states     []serverState
	serverIDs  []topology.NodeID // sorted
	containers []*Container
}

// New creates a cluster over all servers of topo, each with capacity per.
func New(topo *topology.Topology, per Resources) (*Cluster, error) {
	if topo == nil {
		return nil, fmt.Errorf("cluster: nil topology")
	}
	if per.CPU < 0 || per.Memory < 0 {
		return nil, fmt.Errorf("cluster: negative server capacity %v", per)
	}
	c := &Cluster{
		topo:      topo,
		ordinal:   make([]int32, topo.NumNodes()),
		states:    make([]serverState, topo.NumServers()),
		serverIDs: slices.Clone(topo.Servers()),
	}
	slices.Sort(c.serverIDs)
	for i := range c.ordinal {
		c.ordinal[i] = -1
	}
	for i, s := range c.serverIDs {
		c.ordinal[s] = int32(i)
		c.states[i] = serverState{capacity: per}
	}
	return c, nil
}

// ServerIndex returns s's position in Servers(), or -1 when s is not a
// server of this cluster.
func (c *Cluster) ServerIndex(s topology.NodeID) int {
	if s < 0 || int(s) >= len(c.ordinal) {
		return -1
	}
	return int(c.ordinal[s])
}

// state returns s's allocation record, or nil when s is not a server.
func (c *Cluster) state(s topology.NodeID) *serverState {
	if i := c.ServerIndex(s); i >= 0 {
		return &c.states[i]
	}
	return nil
}

// Topology returns the underlying network topology.
func (c *Cluster) Topology() *topology.Topology { return c.topo }

// Servers returns the server node IDs, ascending. Do not modify.
func (c *Cluster) Servers() []topology.NodeID { return c.serverIDs }

// NumContainers returns the number of containers created so far.
func (c *Cluster) NumContainers() int { return len(c.containers) }

// SetServerCapacity overrides one server's capacity. It fails if the server
// is unknown or already uses more than the new capacity. Blessed (exempt)
// epochbump mutator: allocation state is re-read per decision, never
// epoch-cached, so cluster writes carry no bump obligation — but taalint
// still confines them to the blessed set.
func (c *Cluster) SetServerCapacity(s topology.NodeID, cap Resources) error {
	st := c.state(s)
	if st == nil {
		return fmt.Errorf("cluster: unknown server %d", s)
	}
	if !st.used.Fits(Resources{}, cap) {
		return fmt.Errorf("cluster: server %d already uses %v > new capacity %v", s, st.used, cap)
	}
	st.capacity = cap
	return nil
}

// NewContainer creates an unplaced container with the given demand.
func (c *Cluster) NewContainer(demand Resources) (*Container, error) {
	if demand.CPU < 0 || demand.Memory < 0 {
		return nil, fmt.Errorf("cluster: negative demand %v", demand)
	}
	ct := &Container{ID: ContainerID(len(c.containers)), Demand: demand, server: topology.None}
	c.containers = append(c.containers, ct)
	return ct, nil
}

// Container returns the container with the given ID, or nil.
func (c *Cluster) Container(id ContainerID) *Container {
	if id < 0 || int(id) >= len(c.containers) {
		return nil
	}
	return c.containers[id]
}

// Capacity returns the capacity q_j of server s (zero value if unknown).
func (c *Cluster) Capacity(s topology.NodeID) Resources {
	if st := c.state(s); st != nil {
		return st.capacity
	}
	return Resources{}
}

// Used returns the resources currently consumed on server s.
func (c *Cluster) Used(s topology.NodeID) Resources {
	if st := c.state(s); st != nil {
		return st.used
	}
	return Resources{}
}

// Free returns Capacity(s) - Used(s).
func (c *Cluster) Free(s topology.NodeID) Resources {
	if st := c.state(s); st != nil {
		return st.capacity.Sub(st.used)
	}
	return Resources{}
}

// CanHost reports whether server s has room for container id (Eq. 8),
// ignoring the container's current placement if it is already on s.
func (c *Cluster) CanHost(s topology.NodeID, id ContainerID) bool {
	st := c.state(s)
	ct := c.Container(id)
	if st == nil || ct == nil {
		return false
	}
	if ct.server == s {
		return true
	}
	return st.used.Fits(ct.Demand, st.capacity)
}

// Place puts container id on server s, unplacing it first if needed.
// Blessed (exempt) epochbump mutator: see SetServerCapacity.
func (c *Cluster) Place(id ContainerID, s topology.NodeID) error {
	ct := c.Container(id)
	if ct == nil {
		return fmt.Errorf("cluster: unknown container %d", id)
	}
	st := c.state(s)
	if st == nil {
		return fmt.Errorf("cluster: unknown server %d", s)
	}
	if ct.server == s {
		return nil
	}
	if !st.used.Fits(ct.Demand, st.capacity) {
		return fmt.Errorf("cluster: server %d cannot host container %d: used %v + demand %v > capacity %v",
			s, id, st.used, ct.Demand, st.capacity)
	}
	if ct.server != topology.None {
		c.unplace(ct)
	}
	ct.server = s
	st.used = st.used.Add(ct.Demand)
	st.containers = append(st.containers, id)
	return nil
}

// Unplace removes container id from its server; no-op if unplaced.
func (c *Cluster) Unplace(id ContainerID) error {
	ct := c.Container(id)
	if ct == nil {
		return fmt.Errorf("cluster: unknown container %d", id)
	}
	if ct.server != topology.None {
		c.unplace(ct)
	}
	return nil
}

// unplace releases ct's server-side accounting. Blessed (exempt)
// epochbump mutator: see SetServerCapacity.
func (c *Cluster) unplace(ct *Container) {
	st := c.state(ct.server)
	st.used = st.used.Sub(ct.Demand)
	if i := slices.Index(st.containers, ct.ID); i >= 0 {
		last := len(st.containers) - 1
		st.containers[i] = st.containers[last]
		st.containers = st.containers[:last]
	}
	ct.server = topology.None
}

// ContainersOn returns the containers placed on s, ascending by ID.
func (c *Cluster) ContainersOn(s topology.NodeID) []ContainerID {
	st := c.state(s)
	if st == nil {
		return nil
	}
	out := slices.Clone(st.containers)
	slices.Sort(out)
	return out
}

// Candidates returns every server that could host container id (Eq. 8's
// candidate set O(c_i)), ascending, including its current server.
func (c *Cluster) Candidates(id ContainerID) []topology.NodeID {
	return c.AppendCandidates(nil, id)
}

// AppendCandidates appends the feasible servers for the container to buf
// and returns the extended slice — Candidates without the per-call
// allocation, for callers that scan many containers with one reusable
// buffer.
func (c *Cluster) AppendCandidates(buf []topology.NodeID, id ContainerID) []topology.NodeID {
	ct := c.Container(id)
	if ct == nil {
		return buf
	}
	for _, s := range c.serverIDs {
		if c.CanHost(s, id) {
			buf = append(buf, s)
		}
	}
	return buf
}

// TotalFreeSlots reports how many additional containers of the given demand
// the cluster could host across all servers.
func (c *Cluster) TotalFreeSlots(demand Resources) int {
	if demand.IsZero() {
		return 0
	}
	total := 0
	for _, s := range c.serverIDs {
		free := c.Free(s)
		n := -1
		if demand.CPU > 0 {
			n = free.CPU / demand.CPU
		}
		if demand.Memory > 0 {
			if m := free.Memory / demand.Memory; n < 0 || m < n {
				n = m
			}
		}
		if n > 0 {
			total += n
		}
	}
	return total
}

// Validate checks internal invariants: placements are mutual and usage sums
// match. Intended for tests and debugging.
func (c *Cluster) Validate() error {
	for i := range c.states {
		s, st := c.serverIDs[i], &c.states[i]
		var sum Resources
		for _, id := range st.containers {
			ct := c.Container(id)
			if ct == nil || ct.server != s {
				return fmt.Errorf("cluster: server %d lists container %d which points at %v", s, id, ct)
			}
			sum = sum.Add(ct.Demand)
		}
		if sum != st.used {
			return fmt.Errorf("cluster: server %d used %v but containers sum to %v", s, st.used, sum)
		}
		if !st.used.Fits(Resources{}, st.capacity) {
			return fmt.Errorf("cluster: server %d over capacity: %v > %v", s, st.used, st.capacity)
		}
	}
	for _, ct := range c.containers {
		if ct.server == topology.None {
			continue
		}
		st := c.state(ct.server)
		if st == nil {
			return fmt.Errorf("cluster: container %d on unknown server %d", ct.ID, ct.server)
		}
		if !slices.Contains(st.containers, ct.ID) {
			return fmt.Errorf("cluster: container %d not listed on server %d", ct.ID, ct.server)
		}
	}
	return nil
}

// Snapshot captures the current placement so it can be restored after a
// tentative optimization pass.
func (c *Cluster) Snapshot() map[ContainerID]topology.NodeID {
	m := make(map[ContainerID]topology.NodeID, len(c.containers))
	for _, ct := range c.containers {
		m[ct.ID] = ct.server
	}
	return m
}

// Restore reverts to a snapshot produced by Snapshot.
func (c *Cluster) Restore(snap map[ContainerID]topology.NodeID) error {
	for _, ct := range c.containers {
		if ct.server != topology.None {
			c.unplace(ct)
		}
	}
	for id, s := range snap {
		if s == topology.None {
			continue
		}
		if err := c.Place(id, s); err != nil {
			return fmt.Errorf("cluster: restore: %w", err)
		}
	}
	return nil
}
