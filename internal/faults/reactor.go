package faults

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/topology"
)

// FlowEndpoints pins a flow to the servers its endpoints resided on when
// its policy was recorded — the locator-free handle the reactor needs,
// since the containers behind a recorded flow may already be released.
type FlowEndpoints struct {
	Flow     *flow.Flow
	Src, Dst topology.NodeID
}

// ReactResult summarizes one recovery pass.
type ReactResult struct {
	// Rerouted counts policies re-solved off dead switches plus flows moved
	// by the capacity pass.
	Rerouted int
	// Dropped lists flows whose policy had to be shed (no feasible
	// alternative), ascending. They carry no installed policy afterwards.
	Dropped []flow.ID
}

// React restores the two policy-layer invariants after fabric events:
// (1) no installed policy traverses a dead switch, and (2) no switch
// carries more load than its (possibly degraded) capacity. Unroutable or
// unsheddable flows are uninstalled and reported dropped rather than left
// violating either invariant, so the pass always terminates with a clean
// fabric. Flows absent from eps cannot be touched; if such a flow pins an
// overload in place, React returns an error.
func React(ctl *controller.Controller, eps []FlowEndpoints) (ReactResult, error) {
	var res ReactResult
	byID := make(map[flow.ID]FlowEndpoints, len(eps))
	for _, ep := range eps {
		byID[ep.Flow.ID] = ep
	}
	topo := ctl.Topology()

	// Pass 1: policies through dead switches, in flow-ID order.
	ids := make([]flow.ID, 0, len(eps))
	for _, ep := range eps {
		ids = append(ids, ep.Flow.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := ctl.Policy(id)
		if p == nil {
			continue
		}
		dead := false
		for _, w := range p.List {
			if !topo.Alive(w) {
				dead = true
				break
			}
		}
		if !dead {
			continue
		}
		ep := byID[id]
		ctl.Uninstall(id)
		opt, err := ctl.OptimizeBetween(ep.Flow, ep.Src, ep.Dst)
		if err != nil {
			if errors.Is(err, controller.ErrNoFeasibleSwitch) || errors.Is(err, controller.ErrNoFeasibleRoute) {
				res.Dropped = append(res.Dropped, id)
				continue
			}
			return res, err
		}
		if err := ctl.Install(ep.Flow, opt); err != nil {
			return res, fmt.Errorf("faults: reinstall rerouted flow %d: %w", id, err)
		}
		res.Rerouted++
	}

	// Pass 2: shed overload. The victim is the largest-rate flow through
	// the first overloaded switch, the lowest flow ID at a rate tie; it is
	// re-solved by Algorithm 1, or dropped when no feasible reroute exists
	// — the zero-overload guarantee. This is the repository's one reroute
	// path: the fault loop and experiments.FailureRecovery both call it.
	for guard := 0; ; guard++ {
		over := ctl.OverloadedSwitches()
		if len(over) == 0 {
			return res, nil
		}
		if guard > len(eps)+ctl.NumPolicies()+1 {
			return res, fmt.Errorf("faults: overload shedding did not converge")
		}
		w := over[0]
		var victim FlowEndpoints
		found := false
		for _, id := range ids {
			p := ctl.Policy(id)
			if p == nil {
				continue
			}
			onW := false
			for _, sw := range p.List {
				if sw == w {
					onW = true
					break
				}
			}
			if onW {
				ep := byID[id]
				if !found || ep.Flow.Rate > victim.Flow.Rate {
					victim, found = ep, true
				}
			}
		}
		if !found {
			return res, fmt.Errorf("faults: switch %d overloaded by flows outside the reactor's set", w)
		}
		ctl.Uninstall(victim.Flow.ID)
		opt, err := ctl.OptimizeBetween(victim.Flow, victim.Src, victim.Dst)
		if err == nil {
			if insErr := ctl.Install(victim.Flow, opt); insErr == nil {
				res.Rerouted++
				continue
			}
		} else if !errors.Is(err, controller.ErrNoFeasibleSwitch) && !errors.Is(err, controller.ErrNoFeasibleRoute) {
			return res, err
		}
		// No feasible home: the flow stays uninstalled (load shed).
		res.Dropped = append(res.Dropped, victim.Flow.ID)
	}
}
