package scheduler

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/mincostflow"
	"repro/internal/topology"
	"repro/internal/workload"
)

// CAM approximates the minimum-cost-flow resource manager of Li et al.
// [HPDC'12] ("CAM: a topology aware minimum cost flow based resource
// manager"), a related-work baseline: map tasks are placed Capacity-style,
// then every reduce task is assigned by an exact minimum-cost assignment
// over static hop-count costs. Unlike Hit-Scheduler it neither re-optimizes
// maps, nor iterates, nor manages network policies (flows take shortest
// paths) — it is the strongest static-cost placement baseline.
type CAM struct{}

// Name implements Scheduler.
func (CAM) Name() string { return "cam" }

// Schedule implements Scheduler.
func (CAM) Schedule(req *Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	oracle := req.Controller.Oracle()

	// Maps first, Capacity-style.
	var reduces []Task
	for _, t := range unplacedTasks(req) {
		if t.Kind == workload.ReduceTask {
			// Degraded mode pre-filters reduces no server can host so the
			// assignment below stays feasible for the rest.
			if req.Degraded && len(req.Cluster.Candidates(t.Container)) == 0 {
				deferUnplaced(req, t.Container)
				continue
			}
			reduces = append(reduces, t)
			continue
		}
		s, err := mostFreeServer(req.Cluster, t.Container)
		if err != nil {
			if deferUnplaced(req, t.Container) {
				continue
			}
			return fmt.Errorf("scheduler: cam: %w", err)
		}
		if err := req.Cluster.Place(t.Container, s); err != nil {
			return err
		}
	}

	if len(reduces) > 0 {
		servers := req.Cluster.Servers()
		loc := req.Locator()
		// cost[r][s] = sum of incident flow bytes x hop distance from the
		// flow's placed peer; capacity = free CPU slots (the matching
		// dimension used across the repository).
		cost := make([][]float64, len(reduces))
		incident := make(map[cluster.ContainerID][]*flow.Flow, len(reduces))
		for _, t := range reduces {
			incident[t.Container] = nil
		}
		flow.IncidentFlows(incident, req.Flows)
		for ri, t := range reduces {
			cost[ri] = make([]float64, len(servers))
			for si, s := range servers {
				if !req.Cluster.CanHost(s, t.Container) {
					cost[ri][si] = math.Inf(1)
					continue
				}
				var c float64
				for _, f := range incident[t.Container] {
					peer := f.Src
					if peer == t.Container {
						peer = f.Dst
					}
					ps := loc.ServerOf(peer)
					if ps == topology.None {
						continue
					}
					d := oracle.Dist(ps, s)
					if d > 0 {
						c += f.SizeGB * float64(d)
					}
				}
				cost[ri][si] = c
			}
		}
		caps := make([]int, len(servers))
		for si, s := range servers {
			free := req.Cluster.Free(s)
			caps[si] = free.CPU
			if caps[si] < 0 {
				caps[si] = 0
			}
		}
		assign, _, err := mincostflow.Assignment(cost, caps)
		if err != nil {
			return fmt.Errorf("scheduler: cam: %w", err)
		}
		for ri, si := range assign {
			if si < 0 {
				if deferUnplaced(req, reduces[ri].Container) {
					continue
				}
				return fmt.Errorf("scheduler: cam: %w: reduce container %d unassigned", ErrNoFeasibleServer, reduces[ri].Container)
			}
			if err := req.Cluster.Place(reduces[ri].Container, servers[si]); err != nil {
				// CPU said yes but memory refused: fall back to most-free.
				s, ferr := mostFreeServer(req.Cluster, reduces[ri].Container)
				if ferr != nil {
					return fmt.Errorf("scheduler: cam: %v (after %v)", ferr, err)
				}
				if err := req.Cluster.Place(reduces[ri].Container, s); err != nil {
					return err
				}
			}
		}
	}
	return InstallShortestPolicies(req)
}
