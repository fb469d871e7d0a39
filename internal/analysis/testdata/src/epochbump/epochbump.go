// Fixture for the epochbump check, loaded as "fixture/topology" so the
// package-base-qualified blessed/monitored tables apply. Covers: a blessed
// mutator that forgets the bump on one path (trigger), a direct write
// outside the blessed set (trigger), correct mutators including an
// interprocedural bump (near-misses), and exactly one suppressed write.
package topology

// Node and Link mirror the real topology's monitored containers.
type Node struct{ Capacity int }
type Link struct{ Bandwidth float64 }

// Topology mirrors the real field names: nodes/links/alive/numDead are
// monitored, version/liveVersion are the epoch counters.
type Topology struct {
	nodes       []Node
	links       []Link
	alive       []bool
	numDead     int
	version     uint64
	liveVersion uint64
}

// SetSwitchCapacity is a correct blessed mutator: the clean early return
// carries no obligation, the mutating path bumps. Near-miss.
func (t *Topology) SetSwitchCapacity(id, capacity int) bool {
	if id < 0 || id >= len(t.nodes) {
		return false
	}
	t.nodes[id].Capacity = capacity
	t.version++
	return true
}

// SetLinkBandwidth bumps through a helper; the call-graph summary must
// prove it. Near-miss.
func (t *Topology) SetLinkBandwidth(i int, bw float64) bool {
	if i < 0 || i >= len(t.links) {
		return false
	}
	t.links[i].Bandwidth = bw
	t.bump()
	return true
}

func (t *Topology) bump() { t.version++ }

// SetNodeAlive bumps liveVersion when killing a node but forgets it on the
// revive path — the exact stale-route bug the liveness regression test
// caught at runtime. Trigger (bump-proof obligation).
func (t *Topology) SetNodeAlive(id int, alive bool) bool {
	if id < 0 || id >= len(t.alive) {
		return false
	}
	if t.alive[id] == alive {
		return false
	}
	t.alive[id] = alive
	if !alive {
		t.numDead++
		t.liveVersion++
		return true
	}
	t.numDead--
	return true
}

// Cripple mutates the alive mask outside the blessed set. Trigger
// (write containment).
func (t *Topology) Cripple() {
	t.alive[0] = false
}

// Recount is the suppression specimen: exactly one audited escape hatch.
func (t *Topology) Recount(dead int) {
	t.numDead = dead //taalint:epochbump test-harness recount; caller rebuilds every cache
}

// NumDead reads monitored state, which is always fine. Near-miss.
func (t *Topology) NumDead() int { return t.numDead }

// The helpers below pin the shared path walker's control-flow rules
// (DESIGN.md §6.1). None is blessed, so none is reported here; the
// walker-rules test reads each one's bump-proof summary instead: "dirty"
// means a blessed mutator with this body would be reported. Each writes
// through Cripple, whose own write is the finding above, so the cases add
// no write-containment findings.

// switchDefault writes, then bumps in every case of a switch that has a
// default: no path falls past the cases. Clean.
func (t *Topology) switchDefault(i int) {
	t.Cripple()
	switch i {
	case 0:
		t.liveVersion++
	default:
		t.liveVersion++
	}
}

// selectDefault bumps in both clauses of a select with a default: a
// select never falls past its clauses. Clean.
func (t *Topology) selectDefault(ch chan int) {
	t.Cripple()
	select {
	case <-ch:
		t.liveVersion++
	default:
		t.liveVersion++
	}
}

// selectBlocking bumps in both clauses of a select without a default,
// which blocks until one runs. Clean.
func (t *Topology) selectBlocking(in, out chan int) {
	t.Cripple()
	select {
	case <-in:
		t.liveVersion++
	case out <- 1:
		t.liveVersion++
	}
}

// afterReturn bumps and returns; the write after the return is dead code
// and ends no path. Clean.
func (t *Topology) afterReturn(i int) {
	t.Cripple()
	t.liveVersion++
	return
	t.Cripple()
}

// panicDeferred registers the bump before the write, so the panic exit
// runs it. Clean.
func (t *Topology) panicDeferred(i int) {
	defer t.bumpLive()
	t.Cripple()
	if i < 0 {
		panic("negative id")
	}
}

// panicBeforeDefer panics after the write but before the bump is
// deferred: that exit runs no bump. Dirty.
func (t *Topology) panicBeforeDefer(i int) {
	t.Cripple()
	if i < 0 {
		panic("negative id")
	}
	defer t.bumpLive()
}

// deferOneBranch defers the bump on one branch only, so the other path
// exits with the write unbumped. Dirty.
func (t *Topology) deferOneBranch(i int) {
	if i > 0 {
		defer t.bumpLive()
	}
	t.Cripple()
}

// labeledLoop skips both the write and its bump with a labeled continue
// and leaves the outer loop with a labeled break; every iteration that
// writes also bumps. Clean.
func (t *Topology) labeledLoop() {
outer:
	for i := range t.alive {
		for j := range t.links {
			if j == i {
				continue outer
			}
			if j > i {
				break outer
			}
		}
		t.Cripple()
		t.liveVersion++
	}
}

func (t *Topology) bumpLive() { t.liveVersion++ }

// selectComm bumps, then writes in a send clause's value: the walker runs
// a select's comm statements, so that path exits dirty. Dirty.
func (t *Topology) selectComm(in, out chan int) {
	t.liveVersion++
	select {
	case <-in:
	case out <- t.crippled():
	}
}

func (t *Topology) crippled() int {
	t.Cripple()
	return 0
}

// breakSkipsBump writes, then leaves the loop with a break before the
// bump: the break path reaches the loop's exit dirty. Dirty.
func (t *Topology) breakSkipsBump() {
	for i := range t.links {
		t.Cripple()
		if i > 0 {
			break
		}
		t.liveVersion++
	}
}

// continueSkipsBump writes, then skips the bump with a continue: the
// path that continues ends its pass, and then the loop, dirty. Dirty.
func (t *Topology) continueSkipsBump() {
	for i := range t.links {
		t.Cripple()
		if i > 0 {
			continue
		}
		t.liveVersion++
	}
}
