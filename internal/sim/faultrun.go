package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// RunReport accounts for everything the fault path did to keep the run
// alive: how the fabric was perturbed and how the engine reacted. A job is
// either completed (its JobStats carries times) or listed in FailedJobs;
// a shuffle flow either transferred or appears in DroppedFlows — nothing
// vanishes silently.
type RunReport struct {
	// Events is the number of fabric events applied (faults + recoveries).
	Events int
	// Evictions counts containers evicted by server crashes.
	Evictions int
	// TaskFailures counts failed map attempts; Retries the re-executions
	// queued for them, with RetryDelaySum the total backoff they waited.
	TaskFailures  int
	Retries       int
	RetryDelaySum float64
	// FailedTasks counts maps that exhausted their retry budget; their jobs
	// are listed in FailedJobs (ascending, also flagged on JobStats).
	FailedTasks int
	FailedJobs  []int
	// SpeculativeLaunched / SpeculativeWins count straggler backups started
	// and backups that finished before the original.
	SpeculativeLaunched int
	SpeculativeWins     int
	// ReroutedFlows counts policies re-solved off dead or over-capacity
	// switches; DroppedFlows lists flows shed with no feasible alternative
	// (plus flows reported unroutable at schedule time).
	ReroutedFlows int
	DroppedFlows  []flow.ID
	// DeferredPlacements counts container placements pushed to a later wave
	// because no feasible server existed at the time.
	DeferredPlacements int
	// RecoveryLatencySum sums, over reacted fault events, the delay between
	// the fault firing and the wave boundary at which the engine reacted;
	// ReactedFaults is the count (mean latency = sum / count).
	RecoveryLatencySum float64
	ReactedFaults      int
}

// runFaulty executes the workload against a fault plan. Unlike the legacy
// path, time is wave-synchronous on a single global clock: wave w spans
// [T_w, T_w + max attempt duration); fabric events fire at the boundary of
// the wave containing their timestamp (wave-quantized), after which the
// reactor restores the no-dead-switch / no-overload invariants before the
// wave's shuffle routes are snapshot. Jobs gate on their arrival time.
func (e *Engine) runFaulty(res *Result, jobs []*workload.Job, arrivals []float64) (*Result, error) {
	if e.opts.NameNode != nil {
		return nil, fmt.Errorf("sim: fault injection does not support HDFS block placement")
	}
	plan := e.opts.Faults
	model := plan.Tasks
	budget := model.Budget()
	rep := &RunReport{}
	res.Report = rep
	inj := faults.NewInjector(e.topo, e.cl)
	events := append([]faults.Event(nil), plan.Events...)
	faults.SortEvents(events)
	nextEv := 0
	loc := flow.ClusterLocator(e.cl)
	nextFlowID := flow.ID(0)

	states := make([]*jobState, len(jobs))
	for i, job := range jobs {
		st, err := e.newJob(job, arrivals[i])
		if err != nil {
			return nil, err
		}
		n := job.NumMaps
		st.attempts, st.readyAt, st.done = make([]int, n), make([]float64, n), make([]bool, n)
		states[i] = st
	}

	// unplacedReduces lists a job's reduce containers needing (re)placement —
	// initially all of them, later any evicted by a server crash.
	unplacedReduces := func(st *jobState) []cluster.ContainerID {
		var out []cluster.ContainerID
		for _, c := range st.reduceCts {
			if e.cl.Container(c).Server() == topology.None {
				out = append(out, c)
			}
		}
		return out
	}
	// settled reports a job that needs no more placements: it failed, or
	// every map is done and every reduce placed.
	settled := func(st *jobState) bool {
		if st.failed {
			return true
		}
		for _, d := range st.done {
			if !d {
				return false
			}
		}
		return len(unplacedReduces(st)) == 0
	}
	// retryable reports a map that is not done and has attempts left.
	retryable := func(st *jobState, m int) bool {
		return !st.done[m] && st.attempts[m] < budget
	}

	// applyEventsUntil applies every fabric event with Time <= until, then —
	// if anything fired — runs the reactor over the wave's installed flows
	// and enforces the liveness/capacity invariants. It returns the flows
	// the reactor shed and the containers server crashes evicted. The
	// injector mutates fabric state only through blessed epoch-bumping
	// setters (statically enforced by taalint's epochbump check), so the
	// oracle's caches are never stale when the reactor re-solves routes.
	applyEventsUntil := func(until float64, eps []faults.FlowEndpoints) (map[flow.ID]bool, map[cluster.ContainerID]bool, error) {
		fired := false
		evictedNow := make(map[cluster.ContainerID]bool)
		for nextEv < len(events) && events[nextEv].Time <= until {
			ev := events[nextEv]
			nextEv++
			evicted, err := inj.Apply(ev)
			if err != nil {
				return nil, nil, err
			}
			rep.Events++
			rep.Evictions += len(evicted)
			for _, c := range evicted {
				evictedNow[c] = true
			}
			// Faults drained after the last wave (until = +Inf) hit an idle
			// fabric — nothing reacts, so they don't enter the latency mean.
			if !math.IsInf(until, 1) {
				switch ev.Kind {
				case faults.SwitchCrash, faults.SwitchDegrade, faults.LinkDegrade, faults.ServerCrash:
					rep.RecoveryLatencySum += until - ev.Time
					rep.ReactedFaults++
				}
			}
			fired = true
		}
		if !fired {
			return nil, nil, nil
		}
		react, err := faults.React(e.ctl, eps)
		if err != nil {
			return nil, nil, err
		}
		rep.ReroutedFlows += react.Rerouted
		dropped := make(map[flow.ID]bool, len(react.Dropped))
		for _, id := range react.Dropped {
			dropped[id] = true
			rep.DroppedFlows = append(rep.DroppedFlows, id)
		}
		if over := e.ctl.OverloadedSwitches(); len(over) != 0 {
			return nil, nil, fmt.Errorf("sim: switches %v over capacity after reaction", over)
		}
		ids := make([]flow.ID, 0, e.ctl.NumPolicies())
		for id := range e.ctl.Policies() {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			for _, w := range e.ctl.Policy(id).List {
				if !e.topo.Alive(w) {
					return nil, nil, fmt.Errorf("sim: flow %d policy traverses dead switch %d after reaction", id, w)
				}
			}
		}
		return dropped, evictedNow, nil
	}

	simNow := 0.0
	var waveEnds []float64
	for iter := 0; ; iter++ {
		if iter > 10000 {
			return nil, fmt.Errorf("sim: fault wave loop did not terminate")
		}
		// Release the previous wave's map containers (Unplace is a no-op for
		// containers a server crash already evicted).
		for _, st := range states {
			for _, c := range st.prevWave {
				if err := e.cl.Unplace(c); err != nil {
					return nil, err
				}
			}
			st.prevWave = nil
		}

		// Pending work: every unsettled job shares the free slots, and the
		// unplaced reduces of jobs that have arrived are held back first.
		remaining := 0
		reducesPending := 0
		for _, st := range states {
			if settled(st) {
				continue
			}
			remaining++
			if st.arrival <= simNow {
				reducesPending += len(unplacedReduces(st))
			}
		}
		if remaining == 0 {
			break
		}

		quota := (e.cl.TotalFreeSlots(containerDemand) - reducesPending) / remaining
		if quota < 1 {
			quota = 1
		}
		wave := len(waveEnds)

		type waveFlow struct {
			st *jobState
			fl *flow.Flow
		}
		var waveFlows []waveFlow
		var waveEps []faults.FlowEndpoints
		waveDur := 0.0
		ranAny := false
		progressed := false // any placement landed (maps or reduces)

		for _, st := range states {
			if st.failed || st.arrival > simNow {
				continue
			}
			needReduces := unplacedReduces(st)
			var batch []int
			for m := range st.done {
				if len(batch) >= quota {
					break
				}
				if retryable(st, m) && st.readyAt[m] <= simNow {
					batch = append(batch, m)
				}
			}
			// Maps need their reduces placed first (flows want endpoints);
			// a reduce-only request still makes placement progress.
			if len(needReduces) > 0 {
				batch = nil
			}
			if len(needReduces) == 0 && len(batch) == 0 {
				continue
			}

			req := &scheduler.Request{
				Cluster:    e.cl,
				Controller: e.ctl,
				Fixed:      make(map[cluster.ContainerID]bool),
				Rand:       e.rng,
				Degraded:   true,
				Report:     &scheduler.ScheduleReport{},
			}
			for r, c := range st.reduceCts {
				if e.cl.Container(c).Server() == topology.None {
					req.Tasks = append(req.Tasks, scheduler.Task{
						Job: st.job, Kind: workload.ReduceTask, Index: r, Container: c,
					})
				} else {
					req.Fixed[c] = true
				}
			}
			for _, m := range batch {
				if st.mapCts[m] == cluster.NoContainer {
					ct, err := e.cl.NewContainer(containerDemand)
					if err != nil {
						return nil, err
					}
					st.mapCts[m] = ct.ID
				}
				req.Tasks = append(req.Tasks, scheduler.Task{
					Job: st.job, Kind: workload.MapTask, Index: m, Container: st.mapCts[m],
				})
			}
			for _, m := range batch {
				st.addFlows(req, m, &nextFlowID)
			}

			if err := e.sched.Schedule(req); err != nil {
				return nil, fmt.Errorf("sim: %s scheduling job %d wave %d: %w", e.sched.Name(), st.job.ID, wave, err)
			}

			unplaced := make(map[cluster.ContainerID]bool, len(req.Report.UnplacedContainers))
			for _, c := range req.Report.UnplacedContainers {
				unplaced[c] = true
				rep.DeferredPlacements++
			}
			if len(req.Tasks) > len(req.Report.UnplacedContainers) {
				progressed = true
			}
			unroutable := make(map[flow.ID]bool, len(req.Report.UnroutableFlows))
			for _, id := range req.Report.UnroutableFlows {
				unroutable[id] = true
				rep.DroppedFlows = append(rep.DroppedFlows, id)
			}

			// A map fetches its share of remote input at 1 GB per time unit.
			perMap := st.job.RemoteMapGB / float64(st.job.NumMaps)
			succeeded := make(map[int]bool, len(batch))
			var placedCts []cluster.ContainerID
			for _, m := range batch {
				if unplaced[st.mapCts[m]] {
					continue // deferred, not an attempt; eligible again next wave
				}
				placedCts = append(placedCts, st.mapCts[m])
				ranAny = true
				attempt := st.attempts[m]
				st.attempts[m]++
				d := st.job.MapComputeSec[m] + perMap
				dur, _, launched, won := model.AttemptDuration(d, st.job.ID, m, attempt)
				if launched {
					rep.SpeculativeLaunched++
				}
				if won {
					rep.SpeculativeWins++
				}
				if dur > waveDur {
					waveDur = dur
				}
				if model.AttemptFails(st.job.ID, m, attempt) {
					rep.TaskFailures++
					if st.attempts[m] >= budget {
						rep.FailedTasks++
						st.failed = true
					} else {
						delay := model.RetryDelay(st.attempts[m])
						rep.Retries++
						rep.RetryDelaySum += delay
						st.readyAt[m] = simNow + dur + delay
					}
					continue
				}
				succeeded[m] = true
				st.done[m] = true
				st.mapTimes[m] = dur
				st.mapWaveOf[m] = wave
				st.remoteGB += perMap
			}
			if len(succeeded) > 0 && wave+1 > st.numWaves {
				st.numWaves = wave + 1
			}

			for _, fl := range req.Flows {
				if unroutable[fl.ID] {
					continue // reported dropped; no policy installed
				}
				if e.ctl.Policy(fl.ID) == nil {
					return nil, fmt.Errorf("sim: flow %d has no policy after %s", fl.ID, e.sched.Name())
				}
				if !succeeded[fl.MapIndex] || unplaced[fl.Src] || unplaced[fl.Dst] {
					// Failed or deferred attempt: its shuffle never happens.
					e.ctl.Uninstall(fl.ID)
					continue
				}
				waveFlows = append(waveFlows, waveFlow{st: st, fl: fl})
				waveEps = append(waveEps, faults.FlowEndpoints{
					Flow: fl, Src: loc.ServerOf(fl.Src), Dst: loc.ServerOf(fl.Dst),
				})
			}
			st.prevWave = placedCts
		}

		if !ranAny {
			if progressed {
				// Reduces landed but no map ran (maps gate on reduces being
				// placed): loop again at the same instant to schedule them.
				continue
			}
			// Nothing ran: every job waits on an arrival or a retry backoff,
			// or its placements were deferred (e.g. capacity lost to a
			// crash). Advance to the next wakeup — an event, a backoff
			// expiring, or a job arrival. If time cannot move, no event or
			// backoff can unblock the rest: fail what is stuck rather than
			// spin.
			next := math.Inf(1)
			if nextEv < len(events) {
				next = events[nextEv].Time
			}
			for _, st := range states {
				if st.failed {
					continue
				}
				if st.arrival > simNow && st.arrival < next {
					next = st.arrival
				}
				for m := range st.done {
					if retryable(st, m) && st.readyAt[m] > simNow && st.readyAt[m] < next {
						next = st.readyAt[m]
					}
				}
			}
			if math.IsInf(next, 1) {
				for _, st := range states {
					if !settled(st) {
						st.failed = true
					}
				}
				break
			}
			if next > simNow {
				simNow = next
			}
			if _, _, err := applyEventsUntil(simNow, nil); err != nil {
				return nil, err
			}
			continue
		}

		// The wave runs over [simNow, waveEnd]. Fabric events inside that
		// window fire now (wave-quantized), and the reactor repairs the
		// wave's installed shuffle policies before routes are snapshot.
		waveEnd := simNow + waveDur
		droppedNow, evictedNow, err := applyEventsUntil(waveEnd, waveEps)
		if err != nil {
			return nil, err
		}

		// A server crash inside the wave loses the map attempts running on
		// it: undo their completion and re-queue them (evictions do not
		// consume the retry budget — the task did nothing wrong).
		if len(evictedNow) > 0 {
			for _, st := range states {
				for m := range st.done {
					if st.done[m] && st.mapWaveOf[m] == wave && evictedNow[st.mapCts[m]] {
						st.done[m] = false
						st.attempts[m]--
						st.mapTimes[m] = 0
						st.mapWaveOf[m] = 0
						st.readyAt[m] = waveEnd
						st.remoteGB -= st.job.RemoteMapGB / float64(st.job.NumMaps)
					}
				}
			}
		}

		for _, wf := range waveFlows {
			if droppedNow[wf.fl.ID] {
				continue // shed by the reactor; accounted in DroppedFlows
			}
			if !wf.st.done[wf.fl.MapIndex] {
				// The producing map was lost to an eviction: its re-run will
				// emit fresh flows.
				e.ctl.Uninstall(wf.fl.ID)
				continue
			}
			if evictedNow[wf.fl.Dst] {
				// The consuming reduce was lost mid-shuffle; it will be
				// re-placed, and this wave's transfer to it is shed.
				e.ctl.Uninstall(wf.fl.ID)
				rep.DroppedFlows = append(rep.DroppedFlows, wf.fl.ID)
				continue
			}
			if err := e.record(wf.st, wf.fl, loc); err != nil {
				return nil, err
			}
		}
		for _, wf := range waveFlows {
			e.ctl.Uninstall(wf.fl.ID)
		}
		waveEnds = append(waveEnds, waveEnd)
		simNow = waveEnd
	}

	// Drain the timeline (recoveries past the last wave) and verify the
	// fabric comes back clean, then restore any still-degraded nominals so
	// the engine stays reusable.
	if _, _, err := applyEventsUntil(math.Inf(1), nil); err != nil {
		return nil, err
	}
	if over := e.ctl.OverloadedSwitches(); len(over) != 0 {
		return nil, fmt.Errorf("sim: switches %v over capacity after recovery", over)
	}
	if err := inj.RestoreAll(); err != nil {
		return nil, err
	}

	// A completed job's map waves end at the wave clock's marks: every map
	// of it is done, so each mapWaveOf entry names the wave it ran in, and
	// a recorded flow's map ran in the wave that recorded it. Every flow
	// starts when its map's wave ends.
	for _, st := range states {
		if st.failed {
			rep.FailedJobs = append(rep.FailedJobs, st.job.ID)
			continue
		}
		st.firstEnd, st.lastEnd = math.Inf(1), st.arrival
		for m := range st.done {
			end := waveEnds[st.mapWaveOf[m]]
			if end > st.lastEnd {
				st.lastEnd = end
			}
			if end < st.firstEnd {
				st.firstEnd = end
			}
		}
		if math.IsInf(st.firstEnd, 1) {
			st.firstEnd = st.arrival
		}
		for _, fr := range st.flows {
			fr.startHint = waveEnds[st.mapWaveOf[fr.flow.MapIndex]]
		}
	}
	sort.Ints(rep.FailedJobs)
	return e.finish(res, states)
}
