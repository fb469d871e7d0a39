// Package taasearch provides a simulated-annealing solver for the TAA
// objective. The TAA problem is NP-hard (§4), so the exhaustive
// reference.BruteForce oracle only reaches toy sizes; the annealer scales
// to the evaluation's instances and serves as a near-optimal comparator
// that quantifies how much headroom Hit-Scheduler's stable-matching
// heuristic leaves.
//
// The annealer searches placement space directly: a state is an assignment
// of every movable container to a server (CPU-feasible); its energy is the
// Eq. 2 shuffle cost assuming every flow then takes an optimal route (rate
// × hop distance between the endpoint servers — exact when switch
// capacities are slack, a lower bound otherwise). Moves reassign one
// container or swap two containers; acceptance follows Metropolis with a
// geometric cooling schedule. Network policies for the final placement are
// installed through the standard controller optimizer.
package taasearch

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/topology"
)

// Annealer implements scheduler.Scheduler with simulated annealing over
// placements. The zero value uses sensible defaults.
type Annealer struct {
	// Iterations of the Metropolis loop (default 20000).
	Iterations int
}

// The geometric cooling schedule: T_0 = startTemp, T_{k+1} = T_k × cooling.
const (
	startTemp = 10.0
	cooling   = 0.9995
)

// Name implements scheduler.Scheduler.
func (a *Annealer) Name() string { return "anneal" }

func (a *Annealer) iterations() int {
	if a.Iterations <= 0 {
		return 20000
	}
	return a.Iterations
}

// Schedule implements scheduler.Scheduler.
func (a *Annealer) Schedule(req *scheduler.Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	oracle := req.Controller.Oracle()

	// Movable containers and their demands.
	var movable []cluster.ContainerID
	demand := make(map[cluster.ContainerID]int)
	for _, t := range req.Tasks {
		if req.Fixed[t.Container] {
			continue
		}
		movable = append(movable, t.Container)
		d := req.Cluster.Container(t.Container).Demand.CPU
		if d <= 0 {
			d = 1
		}
		demand[t.Container] = d
	}
	servers := req.Cluster.Servers()
	// Free CPU per server, with movable containers' own demand released
	// (they may start placed from a previous round).
	freeCPU := make(map[topology.NodeID]int, len(servers))
	for _, s := range servers {
		freeCPU[s] = req.Cluster.Free(s).CPU
	}
	position := make(map[cluster.ContainerID]topology.NodeID, len(movable))
	for _, c := range movable {
		if ct := req.Cluster.Container(c); ct.Placed() {
			position[c] = ct.Server()
			freeCPU[ct.Server()] += demand[c]
			if err := req.Cluster.Unplace(c); err != nil {
				return err
			}
		}
	}

	// Greedy random feasible initial state for the unplaced.
	for _, c := range movable {
		if _, ok := position[c]; ok {
			continue
		}
		placed := false
		for try := 0; try < 4*len(servers); try++ {
			s := servers[req.Rand.Intn(len(servers))]
			if freeCPU[s] >= demand[c] && req.Cluster.CanHost(s, c) {
				position[c] = s
				placed = true
				break
			}
		}
		if !placed {
			for _, s := range servers {
				if freeCPU[s] >= demand[c] && req.Cluster.CanHost(s, c) {
					position[c] = s
					placed = true
					break
				}
			}
		}
		if !placed {
			return fmt.Errorf("taasearch: no feasible server for container %d", c)
		}
		freeCPU[position[c]] -= demand[c]
	}

	// Fixed endpoints resolve through the cluster.
	serverOf := func(c cluster.ContainerID) topology.NodeID {
		if s, ok := position[c]; ok {
			return s
		}
		ct := req.Cluster.Container(c)
		if ct == nil {
			return topology.None
		}
		return ct.Server()
	}

	// incident[c] lists (flow, peer) pairs for delta evaluation.
	type edge struct {
		rate float64
		peer cluster.ContainerID
	}
	incident := make(map[cluster.ContainerID][]edge)
	for _, f := range req.Flows {
		incident[f.Src] = append(incident[f.Src], edge{rate: f.Rate, peer: f.Dst})
		incident[f.Dst] = append(incident[f.Dst], edge{rate: f.Rate, peer: f.Src})
	}
	costAt := func(c cluster.ContainerID, s topology.NodeID) float64 {
		var sum float64
		for _, e := range incident[c] {
			ps := serverOf(e.peer)
			if ps == topology.None {
				continue
			}
			if e.peer == c {
				continue
			}
			d := oracle.Dist(s, ps)
			if d > 0 {
				sum += e.rate * float64(d)
			}
		}
		return sum
	}

	// Metropolis loop.
	temp := startTemp
	if len(movable) > 0 {
		for it := 0; it < a.iterations(); it++ {
			c := movable[req.Rand.Intn(len(movable))]
			cur := position[c]
			var delta float64
			var apply func()
			if req.Rand.Intn(2) == 0 && len(movable) > 1 {
				// Swap with another movable container (keeps occupancy).
				o := movable[req.Rand.Intn(len(movable))]
				if o == c {
					temp *= cooling
					continue
				}
				so := position[o]
				if so == cur {
					temp *= cooling
					continue
				}
				// CPU feasibility of the exchange.
				if freeCPU[cur]+demand[c]-demand[o] < 0 || freeCPU[so]+demand[o]-demand[c] < 0 {
					temp *= cooling
					continue
				}
				before := costAt(c, cur) + costAt(o, so)
				position[c], position[o] = so, cur
				after := costAt(c, so) + costAt(o, cur)
				position[c], position[o] = cur, so
				delta = after - before
				apply = func() {
					freeCPU[cur] += demand[c] - demand[o]
					freeCPU[so] += demand[o] - demand[c]
					position[c], position[o] = so, cur
				}
			} else {
				// Move to a random server with room.
				s := servers[req.Rand.Intn(len(servers))]
				if s == cur || freeCPU[s] < demand[c] {
					temp *= cooling
					continue
				}
				delta = costAt(c, s) - costAt(c, cur)
				apply = func() {
					freeCPU[cur] += demand[c]
					freeCPU[s] -= demand[c]
					position[c] = s
				}
			}
			if delta <= 0 || (temp > 1e-9 && req.Rand.Float64() < math.Exp(-delta/temp)) {
				apply()
			}
			temp *= cooling
		}
	}

	// Materialize the placement; memory conflicts fall back to feasible
	// servers.
	for _, c := range movable {
		if err := req.Cluster.Place(c, position[c]); err != nil {
			placed := false
			for _, s := range req.Cluster.Candidates(c) {
				if err := req.Cluster.Place(c, s); err == nil {
					placed = true
					break
				}
			}
			if !placed {
				return fmt.Errorf("taasearch: container %d has no feasible server", c)
			}
		}
	}

	// Optimal policies for the final placement.
	loc := req.Locator()
	for _, f := range req.Flows {
		p, err := req.Controller.OptimizePolicy(f, loc)
		if err != nil {
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			return fmt.Errorf("taasearch: install flow %d: %w", f.ID, err)
		}
	}
	return nil
}

// check interface compliance.
var _ scheduler.Scheduler = (*Annealer)(nil)
