// Package scheduler defines the task-placement interface shared by every
// scheduling strategy in the evaluation, plus the baselines the paper
// compares Hit-Scheduler against: YARN's Capacity scheduler
// (topology-unaware), the Probabilistic Network-Aware scheduler of Shen et
// al. [CLUSTER'16] (static costs, single fixed path), and a uniform Random
// scheduler. The exhaustive BruteForce oracle for tiny instances lives in
// internal/reference.
//
// The Hit-Scheduler itself — the paper's contribution — lives in
// internal/core and implements the same Scheduler interface.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Task is one Map or Reduce task awaiting placement; its container has been
// created (unplaced) by the caller.
type Task struct {
	Job       *workload.Job
	Kind      workload.TaskKind
	Index     int
	Container cluster.ContainerID
}

// Request is one scheduling round: place every task's container on a server
// and install a network policy for every flow.
type Request struct {
	Cluster    *cluster.Cluster
	Controller *controller.Controller
	// Tasks lists the containers to place. Containers already placed (from
	// earlier waves) are listed in Fixed and must not move.
	Tasks []Task
	// Flows lists every shuffle flow whose policy this round must (re)install.
	// Endpoints may be containers from Tasks or from Fixed.
	Flows []*flow.Flow
	// Fixed marks containers whose placement is immutable this round
	// (e.g. the single reduce wave while later map waves are scheduled,
	// §5.3.2).
	Fixed map[cluster.ContainerID]bool
	// Rand drives any stochastic choices. Required.
	Rand *rand.Rand
	// Degraded opts into graceful degradation: on infeasibility the
	// scheduler skips the affected container or flow and records it in
	// Report instead of failing the entire wave. Off by default — the
	// fault-free paths keep their historical fail-fast contract (and their
	// exact RNG draw sequence).
	Degraded bool
	// Report receives the degradation outcome when Degraded is set. If nil,
	// the scheduler allocates one and stores it here.
	Report *ScheduleReport
}

// Validate checks the request is well-formed.
func (r *Request) Validate() error {
	if r.Cluster == nil || r.Controller == nil {
		return fmt.Errorf("scheduler: nil cluster or controller")
	}
	if r.Rand == nil {
		return fmt.Errorf("scheduler: nil Rand")
	}
	for _, t := range r.Tasks {
		ct := r.Cluster.Container(t.Container)
		if ct == nil {
			return fmt.Errorf("scheduler: task container %d unknown", t.Container)
		}
		if r.Fixed[t.Container] && !ct.Placed() {
			return fmt.Errorf("scheduler: container %d fixed but unplaced", t.Container)
		}
	}
	for _, f := range r.Flows {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Locator returns a live locator over the request's cluster.
func (r *Request) Locator() flow.Locator { return flow.ClusterLocator(r.Cluster) }

// Scheduler is a placement strategy.
type Scheduler interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Schedule places every non-fixed task container and installs policies
	// for every flow in the request.
	Schedule(req *Request) error
}

// InstallShortestPolicies installs the deterministic shortest-path policy
// for every flow in the request; used by topology-unaware baselines. In
// degraded mode, flows with an unplaced endpoint or no feasible policy are
// recorded in the report and skipped instead of failing the round.
func InstallShortestPolicies(req *Request) error {
	loc := req.Locator()
	for _, f := range req.Flows {
		if req.Degraded && (loc.ServerOf(f.Src) == topology.None || loc.ServerOf(f.Dst) == topology.None) {
			deferUnroutable(req, f.ID)
			continue
		}
		p, err := req.Controller.ShortestPolicy(f, loc)
		if err != nil {
			if infeasibleFlow(err) && deferUnroutable(req, f.ID) {
				continue
			}
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			// The shortest path may be saturated; fall back to the
			// capacity-aware optimizer so the baseline still functions under
			// pressure (real fabrics drop to ECMP siblings similarly).
			opt, optErr := req.Controller.OptimizePolicy(f, loc)
			if optErr != nil {
				if infeasibleFlow(optErr) && deferUnroutable(req, f.ID) {
					continue
				}
				return fmt.Errorf("scheduler: flow %d unroutable: %v (shortest: %v)", f.ID, optErr, err)
			}
			if err := req.Controller.Install(f, opt); err != nil {
				return fmt.Errorf("scheduler: flow %d unroutable: %w", f.ID, err)
			}
		}
	}
	return nil
}

// infeasibleFlow reports whether err is a routing infeasibility degraded
// mode absorbs (as opposed to a programming error worth failing on).
func infeasibleFlow(err error) bool {
	return errors.Is(err, controller.ErrNoFeasibleSwitch) || errors.Is(err, controller.ErrNoFeasibleRoute)
}

// unplacedTasks returns the tasks whose containers still need a server.
func unplacedTasks(req *Request) []Task {
	var out []Task
	for _, t := range req.Tasks {
		if req.Fixed[t.Container] {
			continue
		}
		if ct := req.Cluster.Container(t.Container); ct != nil && !ct.Placed() {
			out = append(out, t)
		}
	}
	return out
}

// Capacity approximates Hadoop YARN's Capacity scheduler: containers are
// granted on the servers with the most free resources (spreading load for
// utilization), with no knowledge of the network topology. Policies are
// plain shortest paths.
type Capacity struct{}

// Name implements Scheduler.
func (Capacity) Name() string { return "capacity" }

// Schedule implements Scheduler.
func (Capacity) Schedule(req *Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	for _, t := range unplacedTasks(req) {
		s, err := mostFreeServer(req.Cluster, t.Container)
		if err != nil {
			if deferUnplaced(req, t.Container) {
				continue
			}
			return fmt.Errorf("scheduler: capacity: %w", err)
		}
		if err := req.Cluster.Place(t.Container, s); err != nil {
			return err
		}
	}
	return InstallShortestPolicies(req)
}

// mostFreeServer picks the feasible server with the largest free CPU (ties:
// largest free memory, then lowest ID — mirroring YARN's most-free-first
// ordering).
func mostFreeServer(cl *cluster.Cluster, c cluster.ContainerID) (topology.NodeID, error) {
	best := topology.None
	var bestFree cluster.Resources
	for _, s := range cl.Servers() {
		if !cl.CanHost(s, c) {
			continue
		}
		free := cl.Free(s)
		if best == topology.None ||
			free.CPU > bestFree.CPU ||
			(free.CPU == bestFree.CPU && free.Memory > bestFree.Memory) {
			best, bestFree = s, free
		}
	}
	if best == topology.None {
		return topology.None, fmt.Errorf("%w: none can host container %d", ErrNoFeasibleServer, c)
	}
	return best, nil
}

// Random places every container uniformly at random among feasible servers
// and installs random (type-correct but location-oblivious) policies. It is
// the paper's "random initial assignment" materialized as a scheduler, and
// the weakest baseline.
type Random struct{}

// Name implements Scheduler.
func (Random) Name() string { return "random" }

// Schedule implements Scheduler.
func (Random) Schedule(req *Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	for _, t := range unplacedTasks(req) {
		cands := req.Cluster.Candidates(t.Container)
		if len(cands) == 0 {
			if deferUnplaced(req, t.Container) {
				continue
			}
			return fmt.Errorf("scheduler: random: %w for container %d", ErrNoFeasibleServer, t.Container)
		}
		if err := req.Cluster.Place(t.Container, cands[req.Rand.Intn(len(cands))]); err != nil {
			return err
		}
	}
	loc := req.Locator()
	for _, f := range req.Flows {
		if req.Degraded && (loc.ServerOf(f.Src) == topology.None || loc.ServerOf(f.Dst) == topology.None) {
			deferUnroutable(req, f.ID)
			continue
		}
		p, err := req.Controller.RandomPolicy(f, loc, req.Rand)
		if err != nil {
			if infeasibleFlow(err) && deferUnroutable(req, f.ID) {
				continue
			}
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			return fmt.Errorf("scheduler: random: install flow %d: %w", f.ID, err)
		}
	}
	return nil
}

// PNA is the Probabilistic Network-Aware scheduler [Shen et al.,
// CLUSTER'16] as the paper characterizes it: it knows the topology and link
// bandwidth but assumes the network cost between two nodes is STATIC (hop
// count) and that each flow follows a single fixed path. Map tasks are
// placed like Capacity; each Reduce task is then placed probabilistically,
// weighting every feasible server by the inverse of its transfer cost from
// the already-placed maps plus a rack-contention term (the original
// scheduler's bandwidth awareness: bytes already converging on a rack make
// it less attractive).
type PNA struct{}

// PNA's weighting.
const (
	// pnaGamma sharpens the probability weighting: weight =
	// (1/cost)^pnaGamma, the characteristic "probabilistic, mostly
	// greedy" behavior.
	pnaGamma = 2.0
	// pnaContentionHops weights the bytes already destined to a rack when
	// costing a new placement there: the up-and-down hops of a rack
	// uplink.
	pnaContentionHops = 2.0
	// pnaTopK bounds the sampled candidate set to the K cheapest servers.
	// Without the bound, inverse-cost sampling over very large clusters
	// puts most probability mass on the huge population of far servers —
	// the opposite of the scheduler's intent on the small clusters it was
	// designed for.
	pnaTopK = 16
)

// Name implements Scheduler.
func (PNA) Name() string { return "pna" }

// Schedule implements Scheduler.
func (PNA) Schedule(req *Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	oracle := req.Controller.Oracle()

	// Maps first, Capacity-style.
	var reduces []Task
	for _, t := range unplacedTasks(req) {
		if t.Kind == workload.ReduceTask {
			reduces = append(reduces, t)
			continue
		}
		s, err := mostFreeServer(req.Cluster, t.Container)
		if err != nil {
			if deferUnplaced(req, t.Container) {
				continue
			}
			return fmt.Errorf("scheduler: pna: %w", err)
		}
		if err := req.Cluster.Place(t.Container, s); err != nil {
			return err
		}
	}

	// Reduces: probabilistic placement by inverse cost (static hop distance
	// plus the rack-contention term).
	rackBytes := make(map[topology.NodeID]float64)
	serverBytes := make(map[topology.NodeID]float64)
	loc := req.Locator()
	for _, t := range reduces {
		cands := req.Cluster.Candidates(t.Container)
		if len(cands) == 0 {
			if deferUnplaced(req, t.Container) {
				continue
			}
			return fmt.Errorf("scheduler: pna: %w for container %d", ErrNoFeasibleServer, t.Container)
		}
		inBytes := reduceInputBytes(t.Container, req.Flows)
		costs := make([]float64, len(cands))
		for i, s := range cands {
			c := staticReduceCost(oracle, t.Container, s, req.Flows, loc)
			c += rackBytes[oracle.AccessSwitch(s)] * pnaContentionHops
			c += serverBytes[s] * pnaContentionHops * 2 // terminal downlink is the scarcest hop
			costs[i] = c
		}
		// Sample inverse-cost among only the pnaTopK cheapest candidates.
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
		if len(order) > pnaTopK {
			order = order[:pnaTopK]
		}
		weights := make([]float64, len(order))
		var total float64
		for k, idx := range order {
			w := 2.0 // zero-cost (fully local) candidates get the best finite weight
			if costs[idx] > 0 {
				w = 1 / costs[idx]
			}
			w = math.Pow(w, pnaGamma)
			weights[k] = w
			total += w
		}
		x := req.Rand.Float64() * total
		chosen := cands[order[len(order)-1]]
		for k, w := range weights {
			if x < w {
				chosen = cands[order[k]]
				break
			}
			x -= w
		}
		if err := req.Cluster.Place(t.Container, chosen); err != nil {
			return err
		}
		rackBytes[oracle.AccessSwitch(chosen)] += inBytes
		serverBytes[chosen] += inBytes
	}
	return InstallShortestPolicies(req)
}

// reduceInputBytes sums the shuffle bytes destined for container c.
func reduceInputBytes(c cluster.ContainerID, flows []*flow.Flow) float64 {
	var sum float64
	for _, f := range flows {
		if f.Dst == c {
			sum += f.SizeGB
		}
	}
	return sum
}

// staticReduceCost is PNA's view of placing reduce container c on server s:
// Σ over incident flows of size × hop-distance from the (placed) peer.
// Unplaced peers contribute nothing (they will be weighted when placed).
// Distances come from the oracle's memoized per-source tables, so repeated
// candidate scans reuse one BFS per placed peer.
func staticReduceCost(o *netstate.Oracle, c cluster.ContainerID, s topology.NodeID, flows []*flow.Flow, loc flow.Locator) float64 {
	var cost float64
	for _, f := range flows {
		var peer cluster.ContainerID
		switch c {
		case f.Dst:
			peer = f.Src
		case f.Src:
			peer = f.Dst
		default:
			continue
		}
		ps := loc.ServerOf(peer)
		if ps == topology.None {
			continue
		}
		d := o.Dist(ps, s)
		if d < 0 {
			continue
		}
		cost += f.SizeGB * float64(d)
	}
	return cost
}

// SortTasksByShuffleOutput orders tasks by the shuffle bytes they produce or
// consume, descending — the pairing order of §5.3.2.
func SortTasksByShuffleOutput(tasks []Task) {
	volume := func(t Task) float64 {
		if t.Job == nil {
			return 0
		}
		if t.Kind == workload.MapTask {
			return t.Job.MapOutputGB(t.Index)
		}
		return t.Job.ReduceInputGB(t.Index)
	}
	sort.SliceStable(tasks, func(i, j int) bool { return volume(tasks[i]) > volume(tasks[j]) })
}
