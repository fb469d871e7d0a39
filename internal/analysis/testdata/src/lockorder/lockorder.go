// Package netstate is the lockorder golden fixture: a miniature oracle
// whose three lock domains form a deliberate acquisition cycle
// (pairMu -> typeMu -> swMu -> pairMu), plus the near misses the check
// must not flag — sequential (non-nested) acquisition, an acyclic
// nesting, and a goroutine boundary.
package netstate

import "sync"

// Oracle carries the fixture's tracked locks. reviveMu participates in
// an acyclic nesting only, so it must never be reported.
type Oracle struct {
	reviveMu sync.Mutex
	pairMu   sync.RWMutex
	typeMu   sync.RWMutex
	swMu     sync.Mutex

	pairs map[int]int
	types []string
	sw    int
}

// RefreshPairs holds pairMu while refreshing the type table through a
// helper that acquires typeMu itself: the pairMu -> typeMu edge of the
// cycle, discovered through the call graph. TRIGGER.
func (o *Oracle) RefreshPairs() {
	o.pairMu.Lock()
	defer o.pairMu.Unlock()
	o.pairs[0] = 1
	o.reloadTypes()
}

// reloadTypes acquires typeMu; with pairMu held at the call site above,
// its transitive acquire set turns the call into a nesting edge.
func (o *Oracle) reloadTypes() {
	o.typeMu.Lock()
	o.types = append(o.types, "agg")
	o.typeMu.Unlock()
}

// RefreshTypes nests swMu directly under typeMu: the typeMu -> swMu
// edge of the cycle. TRIGGER.
func (o *Oracle) RefreshTypes() {
	o.typeMu.Lock()
	defer o.typeMu.Unlock()
	o.swMu.Lock()
	o.sw++
	o.swMu.Unlock()
}

// CountPairs nests pairMu under swMu, closing the cycle; this edge is
// the fixture's deliberately suppressed finding — the escape hatch
// under test.
func (o *Oracle) CountPairs() int {
	o.swMu.Lock()
	defer o.swMu.Unlock()
	o.pairMu.RLock() //taalint:lockorder fixture: demonstrates the escape hatch on one edge of the cycle
	defer o.pairMu.RUnlock()
	return len(o.pairs) + o.sw
}

// EnsureLive nests pairMu under reviveMu — a real edge, but an acyclic
// one (nothing acquires reviveMu while holding another lock), so it is
// not a finding. NEAR MISS.
func (o *Oracle) EnsureLive() {
	o.reviveMu.Lock()
	defer o.reviveMu.Unlock()
	o.pairMu.Lock()
	o.pairs = map[int]int{}
	o.pairMu.Unlock()
}

// RebuildSequential takes two cycle locks one after the other — never
// nested, so no edge at all. NEAR MISS.
func (o *Oracle) RebuildSequential() {
	o.pairMu.Lock()
	o.pairs[1] = 2
	o.pairMu.Unlock()
	o.typeMu.Lock()
	o.types = o.types[:0]
	o.typeMu.Unlock()
}

// SpawnStats holds reviveMu while LAUNCHING a goroutine that takes
// typeMu; starting a goroutine is not nesting — the worker begins with
// an empty held set — so no reviveMu -> typeMu edge. NEAR MISS.
func (o *Oracle) SpawnStats(done chan struct{}) {
	o.reviveMu.Lock()
	defer o.reviveMu.Unlock()
	o.sw++
	go func() {
		o.typeMu.RLock()
		_ = len(o.types)
		o.typeMu.RUnlock()
		close(done)
	}()
}

// cases pins the shared path walker's control-flow rules (DESIGN.md
// §6.1): each method takes its own lock, runs one control-flow shape and
// then takes probe, so the graph has an edge from the case's lock to
// probe exactly when the walker finds the lock held there. probe is never
// held while another lock is taken, so no case closes a cycle.
type cases struct {
	sw, sel, selb, ret, pan, def, loop sync.Mutex
	probe                              sync.Mutex
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
