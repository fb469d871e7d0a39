package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/netsim"
	"repro/internal/netstate"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stablematch"
	"repro/internal/topology"
	"repro/internal/workload"
)

// waveCounters are the live counters read right before and right after a
// Schedule call.
type waveCounters struct {
	hits, misses uint64
	alloc, gc    uint64
}

// layerStats accumulates the traced run's per-layer measurements. Probes
// run after Schedule returns, on fresh oracles and controllers or through
// read-only calls, and never draw from the request's RNG, so the traced run
// produces the same outputs as the untraced one.
type layerStats struct {
	waves        int
	schedMs      []float64
	allocBytes   uint64
	gcs          uint64
	tasks        int
	hits, misses uint64
	bfsRows      float64 // summed over waves
	cacheBytes   float64 // summed over waves

	candT, rowT, coldT, warmT time.Duration
	candCalls, rows, pairs    int
	alg1T, alg1WarmT          time.Duration
	flows, full               int
	matchT                    time.Duration
	matches, rounds           int
	fairT, simT               time.Duration
	netWaves, transfers       int

	simOps, events, rerouted, retries int
	failedJobs, jobs                  int
}

// counters reads the live oracle's pair-route counters and the heap's.
func (h *hooks) counters() waveCounters {
	var c waveCounters
	c.hits, c.misses = h.ctl.Oracle().PairRouteStats()
	c.alloc, c.gc = h.heap.read()
	return c
}

// timed runs one probe under its own span, nested in the running
// benchmark-side block.
func (h *hooks) timed(name string, fn func()) time.Duration {
	sp := h.tr.begin(name, h.block)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	h.tr.end(sp)
	return d
}

// wave books one Schedule call: its span, the live counter deltas across
// it, the live oracle's cache census, and the probes.
func (l *layerStats) wave(h *hooks, req *scheduler.Request, schedSpan, placed int, before, after waveCounters) {
	l.waves++
	l.schedMs = append(l.schedMs, ms(h.tr.spans[schedSpan].dur()))
	l.allocBytes += after.alloc - before.alloc
	l.gcs += after.gc - before.gc
	l.tasks += placed
	l.hits += after.hits - before.hits
	l.misses += after.misses - before.misses
	mem := h.ctl.Oracle().MemoryStats()
	l.bfsRows += float64(mem.DistRows)
	l.cacheBytes += float64(mem.ApproxBytes)
	if err := l.probe(h, req); err != nil {
		h.fail(fmt.Errorf("probe: %w", err))
	}
}

// run books a finished simulation's fault report.
func (l *layerStats) run(res *sim.Result) {
	l.simOps++
	l.jobs += len(res.Jobs)
	if r := res.Report; r != nil {
		l.events += r.Events
		l.rerouted += r.ReroutedFlows
		l.retries += r.Retries
		l.failedJobs += len(r.FailedJobs)
	}
}

type serverPair struct{ src, dst topology.NodeID }

// probe times each layer from outside on the wave's real inputs.
func (l *layerStats) probe(h *hooks, req *scheduler.Request) error {
	topo, loc := h.topo, req.Locator()
	var routed []*flow.Flow
	var servers []topology.NodeID
	var pairs []serverPair
	var rates []float64
	seenSrv := make(map[topology.NodeID]bool)
	seenPair := make(map[serverPair]bool)
	for _, f := range req.Flows {
		if h.ctl.Policy(f.ID) == nil {
			continue
		}
		routed = append(routed, f)
		p := serverPair{loc.ServerOf(f.Src), loc.ServerOf(f.Dst)}
		for _, s := range [...]topology.NodeID{p.src, p.dst} {
			if !seenSrv[s] {
				seenSrv[s] = true
				servers = append(servers, s)
			}
		}
		if p.src != p.dst && !seenPair[p] {
			seenPair[p] = true
			pairs = append(pairs, p)
			rates = append(rates, f.Rate)
		}
	}

	// cluster: one candidate scan per wave container.
	var buf []topology.NodeID
	l.candT += h.timed("cluster.AppendCandidates", func() {
		for _, t := range req.Tasks {
			buf = h.cl.AppendCandidates(buf[:0], t.Container)
		}
	})
	l.candCalls += len(req.Tasks)

	// netstate, on a fresh oracle so the live caches stay untouched.
	o := netstate.New(topo)
	rowList := make([][]int32, len(servers))
	l.rowT += h.timed("netstate.DistRow", func() {
		for i, s := range servers {
			rowList[i] = o.DistRow(s)
		}
	})
	l.rows += len(servers)
	rows := make(map[topology.NodeID][]int32, len(servers))
	for i, s := range servers {
		rows[s] = rowList[i]
	}
	unit := h.ctl.CostModel().UnitCost
	var qs []netstate.RouteQuery
	var qp []serverPair
	for i, p := range pairs {
		types, err := o.TypeTemplate(p.src, p.dst)
		if err != nil || len(types) == 0 {
			continue
		}
		qs = append(qs, netstate.RouteQuery{Rate: rates[i], UnitCost: unit, Stages: o.StagesForTemplate(types), Full: true})
		qp = append(qp, p)
	}
	solveAll := func() {
		for i, q := range qs {
			o.BestRoute(qp[i].src, qp[i].dst, q)
		}
	}
	l.coldT += h.timed("netstate.BestRoute.cold", solveAll)
	l.warmT += h.timed("netstate.BestRoute.warm", solveAll)
	l.pairs += len(qs)

	// controller: Algorithm 1 on a fresh controller holding the live
	// policies, so capacity feasibility matches the live run.
	fresh := controller.New(topo)
	live := h.ctl.Policies()
	ids := make([]flow.ID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := fresh.Install(h.flows[id], live[id]); err != nil {
			return fmt.Errorf("reinstalling flow %d: %w", id, err)
		}
	}
	var solveErr error
	full := 0
	l.alg1T += h.timed("controller.OptimizePolicyDetailed.cold", func() {
		for _, f := range routed {
			_, info, err := fresh.OptimizePolicyDetailed(f, loc)
			if err != nil && solveErr == nil {
				solveErr = err
			}
			if info.FullStages {
				full++
			}
		}
	})
	l.alg1WarmT += h.timed("controller.OptimizePolicyDetailed.warm", func() {
		for _, f := range routed {
			fresh.OptimizePolicyDetailed(f, loc)
		}
	})
	if solveErr != nil {
		return solveErr
	}
	l.flows += len(routed)
	l.full += full

	// stablematch: an instance shaped like the wave.
	if in := matchInstance(h, req, routed, rows); in != nil {
		var res *stablematch.Result
		var err error
		l.matchT += h.timed("stablematch.Match", func() { res, err = stablematch.Match(in) })
		if err != nil {
			return err
		}
		if !stablematch.IsStable(in, res) {
			return fmt.Errorf("probe matching of %d proposers is not stable", in.NumProposers)
		}
		l.matches++
		l.rounds += res.Rounds
	}

	// netsim: the wave's transfers on their installed routes, released
	// together, each call on its own fresh oracle.
	trs := make([]*netsim.Transfer, 0, len(routed))
	for _, f := range routed {
		pol := h.ctl.Policy(f.ID)
		route := make([]topology.NodeID, 0, len(pol.List)+2)
		route = append(route, loc.ServerOf(f.Src))
		route = append(route, pol.List...)
		route = append(route, loc.ServerOf(f.Dst))
		trs = append(trs, &netsim.Transfer{ID: f.ID, Route: route, Bytes: f.SizeGB})
	}
	if len(trs) == 0 {
		return nil
	}
	var err error
	fairNet := netsim.NewNetwork(netstate.New(topo))
	l.fairT += h.timed("netsim.FairShare", func() { _, err = fairNet.FairShare(trs) })
	if err != nil {
		return err
	}
	simNet := netsim.NewNetwork(netstate.New(topo))
	l.simT += h.timed("netsim.Simulate", func() { _, err = simNet.Simulate(trs) })
	if err != nil {
		return err
	}
	l.netWaves++
	l.transfers += len(trs)
	return nil
}

// matchInstance shapes a many-to-one matching like the wave: proposers are
// the wave's placed containers of one kind (maps when it has any), hosts
// are all servers, a proposer ranks servers by rate × hop cost to its peers'
// servers (hops from fresh-oracle rows), hosts rank proposers in index
// order, and capacities are free CPU with the proposers' own placements
// released. It returns nil when the wave has no placed container.
func matchInstance(h *hooks, req *scheduler.Request, routed []*flow.Flow, rows map[topology.NodeID][]int32) *stablematch.Instance {
	loc := req.Locator()
	kind := workload.ReduceTask
	for _, t := range req.Tasks {
		if t.Kind == workload.MapTask {
			kind = workload.MapTask
			break
		}
	}
	var props []cluster.ContainerID
	for _, t := range req.Tasks {
		if t.Kind == kind && h.cl.Container(t.Container).Placed() {
			props = append(props, t.Container)
		}
	}
	if len(props) == 0 {
		return nil
	}
	incident := make(map[cluster.ContainerID][]*flow.Flow)
	for _, f := range routed {
		incident[f.Src] = append(incident[f.Src], f)
		incident[f.Dst] = append(incident[f.Dst], f)
	}
	hosts := h.cl.Servers()
	in := &stablematch.Instance{
		NumProposers:  len(props),
		NumHosts:      len(hosts),
		ProposerPrefs: make([][]int, len(props)),
		HostPrefs:     make([][]int, len(hosts)),
		Load:          make([]float64, len(props)),
		Capacity:      make([]float64, len(hosts)),
	}
	hostIdx := make(map[topology.NodeID]int, len(hosts))
	for i, s := range hosts {
		hostIdx[s] = i
		in.Capacity[i] = float64(h.cl.Free(s).CPU)
	}
	identity := make([]int, len(props))
	for i := range identity {
		identity[i] = i
	}
	for i := range in.HostPrefs {
		in.HostPrefs[i] = identity
	}
	type peer struct {
		srv  topology.NodeID
		rate float64
	}
	cost := make([]float64, len(hosts))
	for p, c := range props {
		ct := h.cl.Container(c)
		in.Load[p] = float64(ct.Demand.CPU)
		in.Capacity[hostIdx[ct.Server()]] += float64(ct.Demand.CPU)
		var peers []peer
		for _, f := range incident[c] {
			other := f.Dst
			if other == c {
				other = f.Src
			}
			s := loc.ServerOf(other)
			i := slices.IndexFunc(peers, func(q peer) bool { return q.srv == s })
			if i < 0 {
				peers = append(peers, peer{srv: s})
				i = len(peers) - 1
			}
			peers[i].rate += f.Rate
		}
		clear(cost)
		for _, q := range peers {
			row := rows[q.srv]
			for i, s := range hosts {
				if d := row[s]; d < 0 {
					cost[i] = math.Inf(1)
				} else {
					cost[i] += q.rate * float64(d)
				}
			}
		}
		order := make([]int, 0, len(hosts))
		for i := range hosts {
			if !math.IsInf(cost[i], 1) {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(cost[a], cost[b]); c != 0 {
				return c
			}
			return a - b
		})
		in.ProposerPrefs[p] = order
	}
	return in
}

// metrics turns the traced run into the per-layer metrics. poolOf maps each
// traced op to its pool index and untraced holds each pool op's untraced op
// times, for the tracing overhead.
func (l *layerStats) metrics(tr *tracer, poolOf map[int]int, untraced map[int][]float64) map[string]float64 {
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	ratio := func(a, b float64) float64 { // b counts something: never negative
		if b <= 0 {
			return 0
		}
		return a / b
	}
	waves := float64(l.waves)
	sched := summarize(l.schedMs, 90)
	// A traced op's time without its probes and checks: the op span minus
	// its benchmark-side blocks, which never overlap one another.
	var builds, clusters, simSelf, traced, base []float64
	opTime := make(map[int]time.Duration)
	for _, s := range tr.spans {
		switch s.Name {
		case "topology.build":
			builds = append(builds, ms(s.dur()))
		case "cluster.New":
			clusters = append(clusters, ms(s.dur()))
		case "sim.Run":
			simSelf = append(simSelf, ms(selfTime(tr.spans, s.ID)))
		case "op":
			opTime[s.Op] += s.dur()
		case "bench.before", "bench.after", "bench.probe":
			opTime[s.Op] -= s.dur()
		}
	}
	for op, k := range poolOf {
		traced = append(traced, ms(opTime[op]))
		base = append(base, untraced[k]...)
	}
	overhead := 0.0
	if t, b := summarize(traced, 50).p50, summarize(base, 50).p50; b > 0 {
		overhead = 100 * (t/b - 1)
	}
	return map[string]float64{
		"topology.build_ms":             summarize(builds, 50).p50,
		"cluster.new_ms":                summarize(clusters, 50).p50,
		"cluster.candidates_us":         per(l.candT, l.candCalls, time.Microsecond),
		"netstate.row_us":               per(l.rowT, l.rows, time.Microsecond),
		"netstate.rows_per_wave":        ratio(float64(l.rows), waves),
		"netstate.solve_us":             per(l.coldT, l.pairs, time.Microsecond),
		"netstate.hit_ns":               per(l.warmT, l.pairs, time.Nanosecond),
		"netstate.pair_hit_ratio":       ratio(float64(l.hits), float64(l.hits+l.misses)),
		"netstate.pair_misses_per_wave": ratio(float64(l.misses), waves),
		"netstate.bfs_rows":             ratio(l.bfsRows, waves),
		"netstate.cache_mb":             ratio(l.cacheBytes, waves) / 1e6,
		"controller.alg1_us":            per(l.alg1T, l.flows, time.Microsecond),
		"controller.alg1_warm_us":       per(l.alg1WarmT, l.flows, time.Microsecond),
		"controller.full_stage_ratio":   ratio(float64(l.full), float64(l.flows)),
		"controller.flows_per_wave":     ratio(float64(l.flows), waves),
		"core.schedule_ms_p50":          sched.p50,
		"core.schedule_ms_p90":          sched.tail,
		"core.alloc_mb_per_wave":        ratio(float64(l.allocBytes), waves) / 1e6,
		"core.gc_per_wave":              ratio(float64(l.gcs), waves),
		"core.tasks_per_wave":           ratio(float64(l.tasks), waves),
		"stablematch.match_ms":          per(l.matchT, l.matches, time.Millisecond),
		"stablematch.rounds":            ratio(float64(l.rounds), float64(l.matches)),
		"netsim.fairshare_us":           per(l.fairT, l.netWaves, time.Microsecond),
		"netsim.simulate_ms":            per(l.simT, l.netWaves, time.Millisecond),
		"netsim.transfers_per_wave":     ratio(float64(l.transfers), float64(l.netWaves)),
		"sim.self_ms":                   mean(simSelf),
		"sim.waves_per_op":              ratio(waves, float64(l.simOps)),
		"faults.events_per_op":          ratio(float64(l.events), float64(l.simOps)),
		"faults.rerouted_per_op":        ratio(float64(l.rerouted), float64(l.simOps)),
		"faults.retries_per_op":         ratio(float64(l.retries), float64(l.simOps)),
		"faults.failed_jobs_ratio":      ratio(float64(l.failedJobs), float64(l.jobs)),
		"trace.overhead_pct":            overhead,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
