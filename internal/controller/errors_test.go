package controller

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/topology"
)

// TestErrNoFeasibleSwitchSentinel drives every Algorithm-1 constructor into
// the saturated-fabric failure and checks the error wraps
// ErrNoFeasibleSwitch, so callers can branch without string matching.
func TestErrNoFeasibleSwitchSentinel(t *testing.T) {
	e := newEnv(t, topology.LinkParams{SwitchCapacity: 1})
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 5) // rate 5 > every cap 1

	if _, err := e.ctl.RandomPolicy(f, e.locator(), rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoFeasibleSwitch) {
		t.Errorf("RandomPolicy error = %v, want wrap of ErrNoFeasibleSwitch", err)
	}
	if _, err := e.ctl.OptimizePolicy(f, e.locator()); !errors.Is(err, ErrNoFeasibleSwitch) {
		t.Errorf("OptimizePolicy error = %v, want wrap of ErrNoFeasibleSwitch", err)
	}
	if _, err := e.ctl.OptimizeBetween(f, srv[0], srv[15]); !errors.Is(err, ErrNoFeasibleSwitch) {
		t.Errorf("OptimizeBetween error = %v, want wrap of ErrNoFeasibleSwitch", err)
	}
}

// TestErrNoFeasibleRouteSentinel disconnects a server (its access switch
// crashes in a single-homed tree) and checks the no-path failures wrap
// ErrNoFeasibleRoute.
func TestErrNoFeasibleRouteSentinel(t *testing.T) {
	topo, err := topology.NewTree(2, 2, topology.LinkParams{SwitchCapacity: topology.InfiniteCapacity})
	if err != nil {
		t.Fatal(err)
	}
	srv := topo.Servers()
	ctl := New(topo)
	acc := ctl.Oracle().AccessSwitch(srv[0])
	if err := topo.SetNodeAlive(acc, false); err != nil {
		t.Fatal(err)
	}
	f := &flow.Flow{ID: 7, Src: 1, Dst: 2, SizeGB: 1, Rate: 1}
	if _, err := ctl.OptimizeBetween(f, srv[0], srv[len(srv)-1]); err == nil {
		t.Fatal("expected error for disconnected pair")
	} else if !errors.Is(err, ErrNoFeasibleRoute) {
		t.Errorf("OptimizeBetween error = %v, want wrap of ErrNoFeasibleRoute", err)
	}
}

// TestInstallRejectsDeadSwitchPolicy builds a valid policy, crashes one of
// its switches, and checks Install refuses it.
func TestInstallRejectsDeadSwitchPolicy(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 1)
	p, err := e.ctl.OptimizePolicy(f, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.List) == 0 {
		t.Fatal("expected a non-trivial route")
	}
	if err := e.topo.SetNodeAlive(p.List[0], false); err != nil {
		t.Fatal(err)
	}
	if err := e.ctl.Install(f, p); err == nil {
		t.Fatalf("Install accepted a policy through dead switch %d", p.List[0])
	}
}
