package scheduler

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/flow"
)

// ErrNoFeasibleServer is the sentinel wrapped by every "no feasible server"
// failure in the placement layers (core's random init, the post-matching
// fallback, the subsequent-wave greedy pass). Callers branch on failure
// class with errors.Is instead of string matching — a contract taalint's
// errcompare check now enforces across every decision package.
var ErrNoFeasibleServer = errors.New("no feasible server")

// ScheduleReport is the degraded-mode outcome of one scheduling round: what
// the scheduler could NOT serve instead of failing the whole wave. Entries
// appear in deterministic (input) order.
type ScheduleReport struct {
	// UnplacedContainers lists containers for which no server had capacity;
	// they remain unplaced and their flows are skipped.
	UnplacedContainers []cluster.ContainerID
	// UnroutableFlows lists flows for which no feasible policy exists
	// (ErrNoFeasibleSwitch / ErrNoFeasibleRoute, or an endpoint was left
	// unplaced); they carry no installed policy after the round.
	UnroutableFlows []flow.ID
}

// ensureReport returns the request's report, allocating one on demand (the
// degraded contract: if the caller passed nil, the scheduler stores its own).
func ensureReport(req *Request) *ScheduleReport {
	if req.Report == nil {
		req.Report = &ScheduleReport{}
	}
	return req.Report
}

// deferUnplaced absorbs an infeasible placement in degraded mode: the
// container is recorded, stays unplaced, and its flows will be reported
// unroutable downstream. Returns false when the request is not degraded —
// the caller keeps its historical fail-fast behavior.
func deferUnplaced(req *Request, c cluster.ContainerID) bool {
	if !req.Degraded {
		return false
	}
	ensureReport(req).UnplacedContainers = append(ensureReport(req).UnplacedContainers, c)
	return true
}

// deferUnroutable absorbs an infeasible flow in degraded mode.
func deferUnroutable(req *Request, id flow.ID) bool {
	if !req.Degraded {
		return false
	}
	ensureReport(req).UnroutableFlows = append(ensureReport(req).UnroutableFlows, id)
	return true
}
