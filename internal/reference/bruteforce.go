package reference

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/scheduler"
	"repro/internal/topology"
)

// maxAssignments caps BruteForce's search; larger requests fail.
const maxAssignments = 200000

// BruteForce exhaustively enumerates every feasible assignment of the
// request's containers to servers, scoring each with optimizer-routed
// policies, and applies the cheapest. It is exponential and guarded to tiny
// instances; it exists as a test oracle for Hit-Scheduler's quality.
type BruteForce struct{}

// Name implements scheduler.Scheduler.
func (BruteForce) Name() string { return "bruteforce" }

// Schedule implements scheduler.Scheduler.
func (BruteForce) Schedule(req *scheduler.Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	var tasks []scheduler.Task
	for _, t := range req.Tasks {
		if ct := req.Cluster.Container(t.Container); !req.Fixed[t.Container] && ct != nil && !ct.Placed() {
			tasks = append(tasks, t)
		}
	}
	servers := req.Cluster.Servers()

	// Estimate search size.
	size := 1
	for range tasks {
		size *= len(servers)
		if size > maxAssignments {
			return fmt.Errorf("reference: bruteforce: search space exceeds %d assignments", maxAssignments)
		}
	}

	assign := make([]topology.NodeID, len(tasks))
	bestCost := -1.0
	var best []topology.NodeID
	loc := req.Locator()

	var rec func(i int) error
	rec = func(i int) error {
		if i == len(tasks) {
			cost, err := bruteEvaluate(req, loc)
			if err != nil {
				return nil // infeasible routing under this assignment; skip
			}
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				best = append(best[:0], assign...)
			}
			return nil
		}
		for _, s := range servers {
			if !req.Cluster.CanHost(s, tasks[i].Container) {
				continue
			}
			if err := req.Cluster.Place(tasks[i].Container, s); err != nil {
				continue
			}
			assign[i] = s
			if err := rec(i + 1); err != nil {
				return err
			}
			if err := req.Cluster.Unplace(tasks[i].Container); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return err
	}
	if bestCost < 0 {
		return fmt.Errorf("reference: bruteforce: no feasible assignment")
	}
	for i, t := range tasks {
		if err := req.Cluster.Place(t.Container, best[i]); err != nil {
			return err
		}
	}
	// Final policies on the winning assignment.
	for _, f := range req.Flows {
		p, err := req.Controller.OptimizePolicy(f, loc)
		if err != nil {
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			return err
		}
	}
	return nil
}

// bruteEvaluate scores the current (fully placed) assignment: optimizer
// policies per flow, summed cost. It leaves no policies installed.
func bruteEvaluate(req *scheduler.Request, loc flow.Locator) (float64, error) {
	cm := req.Controller.CostModel()
	var total float64
	for _, f := range req.Flows {
		p, err := req.Controller.OptimizePolicy(f, loc)
		if err != nil {
			return 0, err
		}
		c, err := cm.FlowCost(f, p, loc)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
