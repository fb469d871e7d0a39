// Package netstate is the walker-rules fixture read through a lock-order
// lattice (DESIGN.md §6.1): the set of locks that may be held at each
// point. No check runs on it; TestWalkerRules/lockorder drives the shared
// path walker over it with a held-set flow of its own.
package netstate

import "sync"

// cases pins the shared path walker's control-flow rules: each method
// takes its own lock, runs one control-flow shape and then takes probe,
// so the lock-order graph has an edge from the case's lock to probe
// exactly when the walker finds the lock held there.
type cases struct {
	sw, sel, selb, ret, pan, def, loop, brk, cont sync.Mutex
	probe                                         sync.Mutex
}

func (c *cases) probed() int {
	c.probe.Lock()
	defer c.probe.Unlock()
	return 1
}

// SwitchDefault unlocks in every case of a switch that has a default: no
// path falls past the cases, so sw is free at probe (no edge).
func (c *cases) SwitchDefault(n int) {
	c.sw.Lock()
	switch n {
	case 0:
		c.sw.Unlock()
	default:
		c.sw.Unlock()
	}
	c.probed()
}

// SelectDefault unlocks in both clauses of a select with a default: a
// select never falls past its clauses (no edge).
func (c *cases) SelectDefault(ch chan int) {
	c.sel.Lock()
	select {
	case <-ch:
		c.sel.Unlock()
	default:
		c.sel.Unlock()
	}
	c.probed()
}

// SelectBlocking evaluates a send clause's value while selb is held: the
// walker walks comm statements (edge selb -> probe).
func (c *cases) SelectBlocking(in, out chan int) {
	c.selb.Lock()
	select {
	case <-in:
		c.selb.Unlock()
	case out <- c.probed():
		c.selb.Unlock()
	}
}

// AfterReturn reaches probe only after a return in the same block: dead
// code adds no edge.
func (c *cases) AfterReturn() {
	c.ret.Lock()
	defer c.ret.Unlock()
	return
	c.probed()
}

// PanicDeferred defers the unlock, so pan stays held past the panic
// check up to probe (edge pan -> probe).
func (c *cases) PanicDeferred(n int) {
	c.pan.Lock()
	defer c.pan.Unlock()
	if n < 0 {
		panic("negative")
	}
	c.probed()
}

// DeferOneBranch defers the unlock on one branch and unlocks at once on
// the other; on the first path def is held at probe (edge def -> probe).
func (c *cases) DeferOneBranch(n int) {
	c.def.Lock()
	if n > 0 {
		defer c.def.Unlock()
	} else {
		c.def.Unlock()
	}
	c.probed()
}

// LabeledLoop unlocks before a labeled continue and at the end of each
// iteration, so loop is free at probe on both walks of the body (no
// edge).
func (c *cases) LabeledLoop(rows [][]int) {
outer:
	for _, row := range rows {
		c.loop.Lock()
		for _, v := range row {
			if v < 0 {
				c.loop.Unlock()
				continue outer
			}
		}
		c.loop.Unlock()
		c.probed()
	}
}

// BreakHoldsLock leaves its loop with a break before the unlock: the
// break joins the loop's exit with brk held (edge brk -> probe).
func (c *cases) BreakHoldsLock(rows []int) {
	for _, v := range rows {
		c.brk.Lock()
		if v < 0 {
			break
		}
		c.brk.Unlock()
	}
	c.probed()
}

// ContinueHoldsLock skips the unlock with a continue, so that pass ends
// with cont held and the loop's exit sees it (edge cont -> probe).
func (c *cases) ContinueHoldsLock(rows []int) {
	for _, v := range rows {
		c.cont.Lock()
		if v < 0 {
			continue
		}
		c.cont.Unlock()
	}
	c.probed()
}
