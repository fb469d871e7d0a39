package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// overcommittedRequest builds a request with more containers than the
// cluster has slots: 4 one-CPU servers versus 6 containers.
func overcommittedRequest(t *testing.T, seed int64) *scheduler.Request {
	t.Helper()
	cl, ctl := testEnv(t, 2, 2, cluster.Resources{CPU: 1, Memory: 4096})
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 1, 4, 2, 1)}, seed)
	return req
}

// TestScheduleWrapsErrNoFeasibleServer: the historical fail-fast contract,
// now with an errors.Is-able class.
func TestScheduleWrapsErrNoFeasibleServer(t *testing.T) {
	req := overcommittedRequest(t, 11)
	err := (&HitScheduler{}).Schedule(req)
	if err == nil {
		t.Fatal("expected failure on an overcommitted cluster")
	}
	if !errors.Is(err, scheduler.ErrNoFeasibleServer) {
		t.Errorf("error = %v, want wrap of scheduler.ErrNoFeasibleServer", err)
	}
}

// TestDegradedModeReportsUnplacedContainers: same overcommitted request,
// degraded mode on — the wave completes, the capacity shortfall lands in
// the report, and everything the cluster could hold is placed and routed.
func TestDegradedModeReportsUnplacedContainers(t *testing.T) {
	req := overcommittedRequest(t, 11)
	req.Degraded = true
	if err := (&HitScheduler{}).Schedule(req); err != nil {
		t.Fatalf("degraded Schedule: %v", err)
	}
	rep := req.Report
	if rep == nil || (len(rep.UnplacedContainers) == 0 && len(rep.UnroutableFlows) == 0) {
		t.Fatalf("expected a non-clean report, got %+v", rep)
	}
	if got, want := len(rep.UnplacedContainers), 2; got != want {
		t.Errorf("UnplacedContainers = %d, want %d (6 containers, 4 slots)", got, want)
	}
	unplaced := make(map[cluster.ContainerID]bool)
	for _, c := range rep.UnplacedContainers {
		unplaced[c] = true
	}
	placed := 0
	for _, task := range req.Tasks {
		if req.Cluster.Container(task.Container).Placed() {
			placed++
		} else if !unplaced[task.Container] {
			t.Errorf("container %d unplaced but not reported", task.Container)
		}
	}
	if placed != 4 {
		t.Errorf("placed %d containers, want 4", placed)
	}
	// Every flow either has an installed policy or is reported unroutable.
	unroutable := 0
	reported := make(map[flow.ID]bool)
	for _, id := range rep.UnroutableFlows {
		reported[id] = true
	}
	for _, f := range req.Flows {
		p := req.Controller.Policy(f.ID)
		switch {
		case p != nil && reported[f.ID]:
			t.Errorf("flow %d both routed and reported unroutable", f.ID)
		case p == nil && !reported[f.ID]:
			t.Errorf("flow %d has no policy and is not reported", f.ID)
		case p == nil:
			unroutable++
		}
	}
	if unroutable == 0 {
		t.Error("expected some unroutable flows (dropped endpoints)")
	}
}

// TestDegradedModeReportsUnroutableFlows saturates the fabric (switch
// capacity below every flow rate) so placement succeeds but no cross-server
// flow is routable.
func TestDegradedModeReportsUnroutableFlows(t *testing.T) {
	topo, err := topology.NewTree(2, 2, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(topo)
	req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 1, 2, 2, 3)}, 5)
	req.Degraded = true
	if err := (&HitScheduler{}).Schedule(req); err != nil {
		t.Fatalf("degraded Schedule: %v", err)
	}
	for _, task := range req.Tasks {
		if !req.Cluster.Container(task.Container).Placed() {
			t.Errorf("container %d unplaced", task.Container)
		}
	}
	rep := req.Report
	reported := make(map[flow.ID]bool)
	for _, id := range rep.UnroutableFlows {
		reported[id] = true
	}
	for _, f := range req.Flows {
		p := req.Controller.Policy(f.ID)
		if p == nil && !reported[f.ID] {
			t.Errorf("flow %d has no policy and is not reported unroutable", f.ID)
		}
		if p != nil && len(p.List) > 0 {
			// Routable flows here can only be same-server (empty policy).
			t.Errorf("flow %d got a cross-server route on a saturated fabric", f.ID)
		}
	}
}

// TestDegradedModeNoFaultBitIdentical: with a feasible request, degraded
// mode must not change a single RNG draw or placement — the flag only buys
// a different failure behavior, never a different success.
func TestDegradedModeNoFaultBitIdentical(t *testing.T) {
	run := func(degraded bool) (float64, map[cluster.ContainerID]topology.NodeID) {
		cl, ctl := testEnv(t, 2, 3, cluster.Resources{CPU: 2, Memory: 8192})
		req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 1, 6, 3, 1)}, 42)
		req.Degraded = degraded
		if err := (&HitScheduler{}).Schedule(req); err != nil {
			t.Fatal(err)
		}
		if rep := req.Report; degraded && rep != nil && (len(rep.UnplacedContainers) > 0 || len(rep.UnroutableFlows) > 0) {
			t.Fatalf("feasible request degraded: %+v", req.Report)
		}
		where := make(map[cluster.ContainerID]topology.NodeID)
		for _, task := range req.Tasks {
			where[task.Container] = req.Cluster.Container(task.Container).Server()
		}
		return totalCost(t, req), where
	}
	costA, whereA := run(false)
	costB, whereB := run(true)
	if math.Float64bits(costA) != math.Float64bits(costB) {
		t.Errorf("cost differs: plain %v degraded %v", costA, costB)
	}
	for c, s := range whereA {
		if whereB[c] != s {
			t.Errorf("container %d: plain server %d, degraded server %d", c, s, whereB[c])
		}
	}
}
