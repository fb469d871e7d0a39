// Package reference holds the slow, obviously-correct references that tests
// check the production code against: netsim's fluid max-min model as it
// stood before it became incremental (FairShare, Simulate), the paper's
// separable utilities of §5.1 (SwapUtility, MoveUtility, ApplySwap), an
// exhaustive placement oracle (BruteForce), a from-scratch
// recomputation of the controller's and the cluster's accounting (Cost,
// Loads, Used), and a plain BFS over the raw graph (Dist, ShortestPath)
// to check netstate's oracle against.
//
// Only tests import this package; TestNoProductionImports fails on any
// non-test import. It imports no netsim, sim or core, so the internal
// tests of those packages can use it.
package reference

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// Dist is the hop distance between a and b by a plain BFS over the live
// nodes of the raw graph, -1 when they are disconnected: no closed form
// and no cache.
func Dist(topo *topology.Topology, a, b topology.NodeID) int {
	return bfs(topo, a)[b]
}

// ShortestPath is the lowest-ID shortest path from src to dst, inclusive
// of both: from src it steps each time to the lowest-ID neighbour one hop
// closer to dst. nil when they are disconnected.
func ShortestPath(topo *topology.Topology, src, dst topology.NodeID) []topology.NodeID {
	d := bfs(topo, dst)
	if d[src] < 0 {
		return nil
	}
	path := []topology.NodeID{src}
	for cur := src; cur != dst; path = append(path, cur) {
		for _, nb := range topo.Neighbors(cur) {
			if d[nb] == d[cur]-1 {
				cur = nb
				break
			}
		}
	}
	return path
}

// bfs returns the hop distance from src to every node, traversing live
// nodes only (a dead source reaches nothing); -1 marks the unreachable.
func bfs(topo *topology.Topology, src topology.NodeID) []int {
	d := make([]int, topo.NumNodes())
	for i := range d {
		d[i] = -1
	}
	if !topo.Alive(src) {
		return d
	}
	d[src] = 0
	queue := []topology.NodeID{src}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, v := range topo.Neighbors(u) {
			if d[v] < 0 && topo.Alive(v) {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return d
}

// Cost is the TAA objective (Eq. 2, 3) recomputed from scratch: for every
// flow, rate × the hop count of its route from the source server through
// its policy's switches to the destination server. Hops come from a fresh
// BFS per segment, with no closed form and no cache.
func Cost(topo *topology.Topology, flows []*flow.Flow, policies map[flow.ID]*flow.Policy, loc flow.Locator) (float64, error) {
	o := netstate.NewUncached(topo)
	var total float64
	for _, f := range flows {
		p, ok := policies[f.ID]
		if !ok {
			return 0, fmt.Errorf("reference: flow %d has no policy", f.ID)
		}
		src, dst := loc.ServerOf(f.Src), loc.ServerOf(f.Dst)
		if src == topology.None || dst == topology.None {
			return 0, fmt.Errorf("reference: flow %d has an unplaced endpoint", f.ID)
		}
		route := append(append([]topology.NodeID{src}, p.List...), dst)
		hops := 0
		for i := 1; i < len(route); i++ {
			d := o.Dist(route[i-1], route[i])
			if d < 0 {
				return 0, fmt.Errorf("reference: flow %d: %d-%d disconnected", f.ID, route[i-1], route[i])
			}
			hops += d
		}
		total += f.Rate * float64(hops)
	}
	return total, nil
}

// Loads rebuilds each node's installed rate, indexed by node ID, from the
// policies alone: every flow adds its rate to each switch its policy lists.
func Loads(topo *topology.Topology, flows []*flow.Flow, policies map[flow.ID]*flow.Policy) []float64 {
	load := make([]float64, topo.NumNodes())
	for _, f := range flows {
		if p, ok := policies[f.ID]; ok {
			for _, w := range p.List {
				load[w] += f.Rate
			}
		}
	}
	return load
}

// Used rebuilds each server's allocation from the placements alone: the
// demands of the containers placed on it, summed. Servers with nothing
// placed are absent.
func Used(cl *cluster.Cluster) map[topology.NodeID]cluster.Resources {
	used := make(map[topology.NodeID]cluster.Resources)
	for id := 0; id < cl.NumContainers(); id++ {
		if ct := cl.Container(cluster.ContainerID(id)); ct != nil && ct.Placed() {
			used[ct.Server()] = used[ct.Server()].Add(ct.Demand)
		}
	}
	return used
}
