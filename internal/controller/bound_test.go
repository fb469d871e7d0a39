package controller

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/topology"
)

// scanFitsEverywhere is FitsEverywhere's scan alone, without the bound.
func scanFitsEverywhere(c *Controller, rate float64) bool {
	for _, w := range c.topo.Switches() {
		cp := c.topo.Node(w).Capacity
		if math.IsInf(cp, 1) {
			continue
		}
		if c.load[w]+rate > cp+1e-9 {
			return false
		}
	}
	return true
}

// scanStages is Algorithm 1's capacity prescan alone: whether every
// candidate of every stage fits the flow (allFit), and whether some stage
// keeps no candidate at all (empty).
func scanStages(c *Controller, f *flow.Flow, types []string) (allFit, empty bool) {
	fits := c.fitsFn(f.ID, f.Rate)
	allFit = true
	for _, st := range c.oracle.StagesForTemplate(types) {
		n := 0
		for _, w := range st {
			if fits(w) {
				n++
			}
		}
		if n == 0 {
			return false, true
		}
		if n < len(st) {
			allFit = false
		}
	}
	return allFit, false
}

// scanRandomPolicy is RandomPolicy's draw with the capacity filter always
// applied.
func scanRandomPolicy(c *Controller, f *flow.Flow, types []string, rng *rand.Rand) ([]topology.NodeID, bool) {
	fits := c.fitsFn(f.ID, f.Rate)
	var list []topology.NodeID
	for _, typ := range types {
		var feasible []topology.NodeID
		for _, w := range c.oracle.SwitchesOfType(typ) {
			if fits(w) {
				feasible = append(feasible, w)
			}
		}
		if len(feasible) == 0 {
			return nil, false
		}
		list = append(list, feasible[rng.Intn(len(feasible))])
	}
	return list, true
}

// boundProbe checks one rate for one flow against the scans: FitsEverywhere,
// Algorithm 1's FullStages (or its ErrNoFeasibleSwitch), and RandomPolicy's
// switch choice under a fixed seed. It reports whether the bound fired.
func boundProbe(t *testing.T, e *env, f *flow.Flow, seed int64) bool {
	t.Helper()
	c := e.ctl
	fired := c.roomEverywhere(f.Rate)
	if got, want := c.FitsEverywhere(f.Rate), scanFitsEverywhere(c, f.Rate); got != want {
		t.Fatalf("FitsEverywhere(%v) = %v, scan says %v (loadHigh %v, capMin %v)", f.Rate, got, want, c.loadHigh, c.capMin)
	}
	types, err := c.oracle.TypeTemplate(e.loc[f.Src], e.loc[f.Dst])
	if err != nil {
		t.Fatal(err)
	}
	allFit, empty := scanStages(c, f, types)
	_, info, err := c.OptimizePolicyDetailed(f, e.locator())
	switch {
	case empty:
		if !errors.Is(err, ErrNoFeasibleSwitch) {
			t.Fatalf("flow %d rate %v: err %v, scan found an empty stage", f.ID, f.Rate, err)
		}
	case errors.Is(err, ErrNoFeasibleSwitch):
		t.Fatalf("flow %d rate %v: %v, but the scan kept every stage", f.ID, f.Rate, err)
	case info.FullStages != allFit:
		t.Fatalf("flow %d rate %v: FullStages %v, scan says %v", f.ID, f.Rate, info.FullStages, allFit)
	}
	p, err := c.RandomPolicy(f, e.locator(), rand.New(rand.NewSource(seed)))
	want, ok := scanRandomPolicy(c, f, types, rand.New(rand.NewSource(seed)))
	if (err == nil) != ok {
		t.Fatalf("flow %d rate %v: RandomPolicy err %v, scan ok %v", f.ID, f.Rate, err, ok)
	}
	if ok && fmt.Sprint(p.List) != fmt.Sprint(want) {
		t.Fatalf("flow %d rate %v: RandomPolicy chose %v, scan %v", f.ID, f.Rate, p.List, want)
	}
	return fired
}

// TestCapacityBoundMatchesScan drives a controller through random
// installs, uninstalls and capacity changes, with loads up to and
// past capacity, and probes rates on both sides of the bound's edge and
// of every switch's own slack, within the 1e-9 tolerance. Every answer
// must equal the scan-only one, and the bound must both fire and decline.
func TestCapacityBoundMatchesScan(t *testing.T) {
	for _, capacity := range []float64{10, topology.InfiniteCapacity} {
		t.Run(fmt.Sprint("cap-", capacity), func(t *testing.T) {
			e := newEnv(t, topology.LinkParams{SwitchCapacity: capacity})
			rng := rand.New(rand.NewSource(7))
			srv := e.topo.Servers()
			sw := e.topo.Switches()
			var flows []*flow.Flow
			fired, declined := 0, 0
			for step := 0; step < 300; step++ {
				switch k := rng.Intn(20); {
				case k < 3:
					w := sw[rng.Intn(len(sw))]
					if err := e.topo.SetSwitchCapacity(w, rng.Float64()*12); err != nil {
						t.Fatal(err)
					}
				case k < 5 && len(flows) > 0:
					e.ctl.Uninstall(flows[rng.Intn(len(flows))].ID)
				default:
					id := flow.ID(len(flows))
					a, b := srv[rng.Intn(len(srv))], srv[rng.Intn(len(srv))]
					f := e.flowBetween(id, cluster.ContainerID(2*id), cluster.ContainerID(2*id+1), a, b, rng.Float64()*3)
					flows = append(flows, f)
					if p, err := e.ctl.RandomPolicy(f, e.locator(), rng); err == nil {
						_ = e.ctl.Install(f, p) // over capacity is fine: no change
					}
				}
				if len(flows) == 0 {
					continue
				}
				base := flows[rng.Intn(len(flows))]
				if e.loc[base.Src] == e.loc[base.Dst] {
					continue
				}
				e.ctl.roomEverywhere(0)
				w := sw[rng.Intn(len(sw))]
				edges := []float64{
					e.ctl.capMin - e.ctl.loadHigh,
					e.topo.Node(w).Capacity - e.ctl.Load(w),
					rng.Float64() * 4,
				}
				for _, edge := range edges {
					for _, d := range []float64{-2e-9, -1e-9, -5e-10, 0, 5e-10, 1e-9, 2e-9} {
						for _, rate := range []float64{edge + d, math.Nextafter(edge+d, math.Inf(1)), math.Nextafter(edge+d, math.Inf(-1))} {
							if rate < 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
								continue
							}
							probe := *base
							probe.Rate = rate
							if boundProbe(t, e, &probe, int64(step)) {
								fired++
							} else {
								declined++
							}
						}
					}
				}
			}
			if fired == 0 || (declined == 0 && !math.IsInf(capacity, 1)) {
				t.Fatalf("bound fired %d times and declined %d: the probes miss one side", fired, declined)
			}
		})
	}
}

// TestCapacityBoundNaN asserts a NaN capacity or a NaN load disables the
// bound for good, and a NaN rate never passes it; the scans then decide.
func TestCapacityBoundNaN(t *testing.T) {
	probeAll := func(t *testing.T, e *env, f *flow.Flow) {
		t.Helper()
		for _, rate := range []float64{0, 1, 5, 10, 11} {
			probe := *f
			probe.Rate = rate
			if boundProbe(t, e, &probe, 1) {
				t.Fatalf("bound passed rate %v with a NaN in the fabric", rate)
			}
		}
	}

	t.Run("capacity", func(t *testing.T) {
		e := newEnv(t, topology.LinkParams{SwitchCapacity: 10})
		srv := e.topo.Servers()
		f := e.flowBetween(0, 1, 2, srv[0], srv[15], 1)
		if !e.ctl.roomEverywhere(1) {
			t.Fatal("bound declined on an idle fabric")
		}
		if e.ctl.roomEverywhere(math.NaN()) {
			t.Fatal("bound passed a NaN rate")
		}
		if err := e.topo.SetSwitchCapacity(e.topo.Switches()[3], math.NaN()); err != nil {
			t.Fatal(err)
		}
		probeAll(t, e, f)
	})

	// A NaN-rate flow leaves NaN loads on its switches, which fail every
	// per-switch test; later installs elsewhere must not revive the bound.
	t.Run("load", func(t *testing.T) {
		e := newEnv(t, topology.LinkParams{SwitchCapacity: 10})
		srv := e.topo.Servers()
		for i, pair := range [][2]topology.NodeID{{srv[0], srv[1]}, {srv[8], srv[9]}} {
			id := flow.ID(i)
			rate := math.NaN()
			if i > 0 {
				rate = 1
			}
			f := e.flowBetween(id, cluster.ContainerID(2*id), cluster.ContainerID(2*id+1), pair[0], pair[1], rate)
			p, err := e.ctl.ShortestPolicy(f, e.locator())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ctl.Install(f, p); err != nil {
				t.Fatal(err)
			}
		}
		probeAll(t, e, e.flowBetween(5, 10, 11, srv[0], srv[1], 1))
	})
}
