package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/scheduler"
	"repro/internal/topology"
)

// heapReader reads the runtime's cumulative heap-allocation and GC-cycle
// counters (TotalAlloc and NumGC) without stopping the world.
type heapReader struct{ s []metrics.Sample }

func newHeapReader() *heapReader {
	return &heapReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (r *heapReader) read() (allocBytes, gcCycles uint64) {
	metrics.Read(r.s)
	return r.s[0].Value.Uint64(), r.s[1].Value.Uint64()
}

// hooks is the benchmark's view of one op: the live cluster and controller
// the op schedules against, the time and allocation its own checks and
// probes spend inside the op (subtracted from the op's figures), and the
// first output check that failed.
type hooks struct {
	tr     *tracer
	layer  *layerStats // nil when untraced
	heap   *heapReader
	parent int // span the op's Schedule calls nest under
	block  int // span of the benchmark-side block running now

	topo    *topology.Topology
	cl      *cluster.Cluster
	ctl     *controller.Controller
	healthy bool

	flows    map[flow.ID]*flow.Flow // every flow the op has scheduled
	checkO   *netstate.Oracle       // fresh oracle the policy check asks
	tasks    int                    // tasks placed
	waves    int                    // Schedule calls
	excluded time.Duration
	exAlloc  uint64
	checkErr error
}

// fail keeps the first output-check failure of the op.
func (h *hooks) fail(err error) {
	if h.checkErr == nil {
		h.checkErr = err
	}
}

// aside runs benchmark-side work inside an op (checks, counter reads,
// probes) under a span, and books its time and allocations as excluded from
// the op's figures.
func (h *hooks) aside(name string, fn func()) {
	t0 := time.Now()
	a0, _ := h.heap.read()
	sp := h.tr.begin(name, h.parent)
	h.block = sp
	fn()
	h.tr.end(sp)
	a1, _ := h.heap.read()
	h.exAlloc += a1 - a0
	h.excluded += time.Since(t0)
}

// hitWrap is the sequential Hit scheduler (Shards unset) behind a wrapper
// that times each Schedule call and, once it returns, checks the wave's
// outputs and — in the traced run — probes the layers on its real inputs.
type hitWrap struct {
	hit core.HitScheduler
	h   *hooks
}

func (w *hitWrap) Name() string { return w.hit.Name() }

func (w *hitWrap) Schedule(req *scheduler.Request) error {
	h := w.h
	var before, after waveCounters
	if h.layer != nil {
		h.aside("bench.before", func() { before = h.counters() })
	}
	sp := h.tr.begin("core.Schedule", h.parent)
	err := w.hit.Schedule(req)
	h.tr.end(sp)
	if err != nil {
		return err
	}
	h.aside("bench.after", func() {
		if h.layer != nil {
			after = h.counters()
		}
		placed := 0
		for _, t := range req.Tasks {
			if h.cl.Container(t.Container).Placed() {
				placed++
			}
		}
		h.tasks += placed
		h.waves++
		for _, f := range req.Flows {
			h.flows[f.ID] = f
		}
		if err := h.checkWave(req); err != nil {
			h.fail(fmt.Errorf("wave %d: %w", h.waves, err))
		}
		if h.layer != nil {
			h.layer.wave(h, req, sp, placed, before, after)
		}
	})
	return nil
}

// checkWave checks the state Schedule left: every installed policy's switch
// types are the §3 type template of its endpoint servers, as a fresh oracle
// computes it, and name switches of those types; every flow of the request
// has a policy unless the scheduler reported it unroutable; and on healthy
// fabrics no switch is over capacity.
func (h *hooks) checkWave(req *scheduler.Request) error {
	if h.checkO == nil {
		h.checkO = netstate.New(h.topo)
	}
	loc := req.Locator()
	pols := h.ctl.Policies()
	ids := make([]flow.ID, 0, len(pols))
	for id := range pols {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := pols[id]
		f := h.flows[id]
		if f == nil {
			return fmt.Errorf("policy installed for unknown flow %d", id)
		}
		src, dst := loc.ServerOf(f.Src), loc.ServerOf(f.Dst)
		if src == topology.None || dst == topology.None {
			return fmt.Errorf("flow %d has a policy but an unplaced endpoint", id)
		}
		want, err := h.checkO.TypeTemplate(src, dst)
		if err != nil {
			return fmt.Errorf("flow %d: %w", id, err)
		}
		if !slices.Equal(p.Types, want) {
			return fmt.Errorf("flow %d: policy types %v, type template %v", id, p.Types, want)
		}
		if err := p.Satisfied(h.topo); err != nil {
			return err
		}
	}
	unroutable := make(map[flow.ID]bool)
	if req.Report != nil {
		for _, id := range req.Report.UnroutableFlows {
			unroutable[id] = true
		}
	}
	for _, f := range req.Flows {
		if pols[f.ID] == nil && !unroutable[f.ID] {
			return fmt.Errorf("flow %d has no policy and was not reported unroutable", f.ID)
		}
	}
	if h.healthy {
		if over := h.ctl.OverloadedSwitches(); len(over) > 0 {
			return fmt.Errorf("switches %v over capacity on a healthy fabric", over)
		}
	}
	return nil
}
