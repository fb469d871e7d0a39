// Package sim is the cluster simulator that stands in for the paper's
// 9-node Hadoop YARN testbed and 64-host Mininet network. It drives a full
// MapReduce lifecycle — wave-aware task scheduling through a pluggable
// Scheduler, map execution, the shuffle phase as concurrent transfers over
// the flow-level network simulator, and reduce execution — and reports the
// quantities the paper's evaluation plots: job completion times and map and
// reduce task times (Figure 6), average route length and shuffle delay
// (Figure 7), shuffle traffic cost (Figures 8 and 10), and aggregate shuffle
// throughput (Figure 9).
//
// Timing model. Jobs are submitted together at t=0. Each job's maps run in
// waves sized by the cluster's free container slots (reduces are placed with
// the first wave, as YARN starts reducers early; later map waves are
// scheduled with the reduce placements fixed, exercising §5.3.2). A map
// task's duration is its compute time plus its share of remote input fetch.
// Every shuffle flow becomes a network transfer starting when its producing
// map wave ends; all jobs' transfers share the network simultaneously, which
// is where scheduler quality shows up. A reduce finishes when its last
// inbound flow lands plus its compute time; the job completes with its last
// reduce.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Options tunes the engine.
type Options struct {
	// Seed drives every stochastic choice (generator-independent).
	Seed int64
	// Faults, when non-nil and non-empty, switches the run onto the
	// fault-injection path (see faultrun.go): fabric events fire at wave
	// boundaries, task attempts may fail or straggle per Faults.Tasks, and
	// the Result carries a RunReport. An empty plan leaves the legacy
	// fault-free path — and its exact RNG draw sequence — untouched.
	Faults *faults.Plan
	// CheckpointSink, when non-nil, receives the joint-loop run state at
	// every wave boundary (checkpoint.go). Checkpointing is restricted to
	// fault-free runs on a fresh engine — the only mode whose full state
	// the format captures.
	CheckpointSink func(*Checkpoint) error
	// Resume, when non-nil, restores the run from a wave-boundary
	// checkpoint instead of starting at round 0; the resumed run's output
	// is bit-identical to the uninterrupted run. Fails with
	// ErrCheckpointMismatch when the checkpoint was taken under a
	// different configuration.
	Resume *Checkpoint
	// HaltAfterWave, when positive, stops the run after that many map
	// waves (immediately after the boundary checkpoint is written) with an
	// error wrapping ErrHalted — the orderly kill half of a
	// checkpoint/resume pair.
	HaltAfterWave int
}

// containerDemand is every task's resource ask: one CPU and 1024 MB.
var containerDemand = cluster.Resources{CPU: 1, Memory: 1024}

// Engine runs workloads against one topology + scheduler combination.
type Engine struct {
	topo   *topology.Topology
	cl     *cluster.Cluster
	ctl    *controller.Controller
	net    *netsim.Network
	sched  scheduler.Scheduler
	opts   Options
	rng    *rand.Rand
	rngSrc *CountingSource
	// used marks an engine that has started a run: a run with jobs that
	// passed validation. Only a fresh engine may checkpoint or resume.
	used bool
}

// New builds an engine over topo with per-server resources serverRes.
func New(topo *topology.Topology, serverRes cluster.Resources, sched scheduler.Scheduler, opts Options) (*Engine, error) {
	if topo == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if sched == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	cl, err := cluster.New(topo, serverRes)
	if err != nil {
		return nil, err
	}
	ctl := controller.New(topo)
	// The counting wrapper is value-stream-transparent (see
	// TestCountingSourceStreamIdentity); it exists so checkpoints can
	// record — and resumes replay — the exact RNG position.
	src := NewCountingSource(opts.Seed)
	return &Engine{
		topo:   topo,
		cl:     cl,
		ctl:    ctl,
		net:    netsim.NewNetwork(ctl.Oracle()),
		sched:  sched,
		opts:   opts,
		rng:    rand.New(src),
		rngSrc: src,
	}, nil
}

// Cluster exposes the engine's cluster (for inspection in tests/examples).
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Controller exposes the engine's policy controller.
func (e *Engine) Controller() *controller.Controller { return e.ctl }

// flowRecord snapshots one shuffle flow after scheduling.
type flowRecord struct {
	flow      *flow.Flow
	route     []topology.NodeID
	hops      int
	cost      float64 // rate x hops (Eq. 2)
	delay     float64 // size x route latency, GB·T
	latT      float64 // route latency in T
	startHint float64 // when the producing map's wave ends
}

// jobState is one job's progress through either wave loop. It lives at
// package scope so checkpoint.go can serialize and rebuild it at wave
// boundaries. Whichever loop ran leaves the outcome fields filled for
// finish, which reads nothing else of how the maps were run.
type jobState struct {
	job       *workload.Job
	arrival   float64
	reduceCts []cluster.ContainerID
	mapCts    []cluster.ContainerID // index by map task
	mapWaveOf []int
	numWaves  int
	prevWave  []cluster.ContainerID // containers of the previous map wave
	flows     []*flowRecord

	// Outcome: map durations, remote input read, whether the job was
	// aborted, and when its first and last map waves ended.
	mapTimes          []float64
	remoteGB          float64
	failed            bool
	firstEnd, lastEnd float64

	// Legacy loop: the next map to place.
	nextMap int

	// Fault loop: per-map attempts consumed, earliest re-schedulable time
	// (retry backoff) and completion.
	attempts []int
	readyAt  []float64
	done     []bool
}

// newJobState returns job's record with no map container created yet.
func newJobState(job *workload.Job, arrival float64) *jobState {
	st := &jobState{
		job:       job,
		arrival:   arrival,
		mapCts:    make([]cluster.ContainerID, job.NumMaps),
		mapWaveOf: make([]int, job.NumMaps),
		mapTimes:  make([]float64, job.NumMaps),
	}
	for m := range st.mapCts {
		st.mapCts[m] = cluster.NoContainer
	}
	return st
}

// newJob returns job's record with its reduce containers created,
// unplaced.
func (e *Engine) newJob(job *workload.Job, arrival float64) (*jobState, error) {
	st := newJobState(job, arrival)
	for r := 0; r < job.NumReduces; r++ {
		ct, err := e.cl.NewContainer(containerDemand)
		if err != nil {
			return nil, err
		}
		st.reduceCts = append(st.reduceCts, ct.ID)
	}
	return st, nil
}

// addFlows appends to req one flow from map m to every reduce it feeds,
// numbering them on from *next.
func (st *jobState) addFlows(req *scheduler.Request, m int, next *flow.ID) {
	for r := 0; r < st.job.NumReduces; r++ {
		size := st.job.Shuffle[m][r]
		if size <= 0 {
			continue
		}
		req.Flows = append(req.Flows, &flow.Flow{
			ID: *next, JobID: st.job.ID, MapIndex: m, ReduceIndex: r,
			Src: st.mapCts[m], Dst: st.reduceCts[r],
			SizeGB: size, Rate: size,
		})
		*next++
	}
}

// numberableFlows is the number of flow IDs the legacy loop hands out for
// jobs: addFlows numbers one flow per shuffle cell it does not skip, and
// each map runs once.
func numberableFlows(jobs []*workload.Job) int {
	n := 0
	for _, job := range jobs {
		for _, row := range job.Shuffle {
			for _, size := range row {
				if size <= 0 {
					continue
				}
				n++
			}
		}
	}
	return n
}

// record snapshots fl's installed route into st before anything moves:
// the route's nodes, hops, Eq. 2 cost and latency.
func (e *Engine) record(st *jobState, fl *flow.Flow, loc flow.Locator) error {
	pol := e.ctl.Policy(fl.ID)
	if pol == nil {
		return fmt.Errorf("sim: flow %d has no policy after %s", fl.ID, e.sched.Name())
	}
	cm := e.ctl.CostModel()
	route, err := cm.RouteNodes(fl, pol, loc)
	if err != nil {
		return err
	}
	hops, err := cm.RouteHops(fl, pol, loc)
	if err != nil {
		return err
	}
	cost, err := cm.FlowCost(fl, pol, loc)
	if err != nil {
		return err
	}
	walk, err := e.net.ExpandRoute(route)
	if err != nil {
		return err
	}
	latT := e.ctl.Oracle().PathLatency(walk)
	st.flows = append(st.flows, &flowRecord{
		flow: fl, route: route, hops: hops, cost: cost,
		delay: fl.SizeGB * latT, latT: latT,
	})
	return nil
}

// JobStats aggregates one job's outcome.
type JobStats struct {
	JobID     int
	Benchmark string
	Class     workload.Class
	// Arrival is the job's submission time; Completion is the job's
	// duration measured from Arrival.
	Arrival    float64
	Completion float64
	// MapTimes[i] is map i's task duration; ReduceTimes likewise (including
	// shuffle wait).
	MapTimes    []float64
	ReduceTimes []float64
	// ShuffleBytes actually transferred over the network (locally-served
	// pairs excluded).
	ShuffleBytes float64
	// TrafficCost is the Eq. 2 shuffle cost (rate × hops summed).
	TrafficCost float64
	// DelayCost is the §2.3 GB·T metric (size × route latency summed).
	DelayCost float64
	// RemoteMapGB is the map-input bytes read across the network: an equal
	// share of the job's statistical RemoteMapGB per completed map.
	RemoteMapGB float64
	// MapWaves is how many scheduling waves the maps needed.
	MapWaves int
	// Failed marks a job aborted by the fault path (a task exhausted its
	// retry budget or the job could never be fully placed); its timing
	// fields are zero and it is excluded from the aggregate samples.
	Failed bool
}

// Result aggregates a Run.
type Result struct {
	Scheduler string
	Jobs      []*JobStats
	// JCT, MapTime, ReduceTime collect per-job / per-task samples.
	JCT        metrics.Sample
	MapTime    metrics.Sample
	ReduceTime metrics.Sample
	// TotalTrafficCost is the Eq. 2 objective over every flow.
	TotalTrafficCost float64
	// TotalDelayCost is the GB·T variant.
	TotalDelayCost float64
	// AvgRouteHops and AvgShuffleDelayT average per-flow route length and
	// propagation latency (Figure 7).
	AvgRouteHops     float64
	AvgShuffleDelayT float64
	// AvgFlowTransferTime averages the bandwidth-bound transfer times
	// (the "shuffle flow traffic time" of the abstract).
	AvgFlowTransferTime float64
	// ShuffleMakespan is when the last flow lands; ShuffleThroughput is
	// bytes moved per time unit during the shuffle (Figure 9).
	ShuffleMakespan   float64
	ShuffleThroughput float64
	// NumFlows counts network-crossing shuffle flows.
	NumFlows int
	// Report accounts for fault-path activity; nil on the fault-free path.
	Report *RunReport
}

// Run executes the workload (all jobs submitted at t=0) and returns
// aggregate metrics.
func (e *Engine) Run(jobs []*workload.Job) (*Result, error) {
	return e.RunWithArrivals(jobs, nil)
}

// RunWithArrivals executes the workload with per-job submission times
// (online arrivals): job i's map phase starts at arrivals[i] and its
// completion time is measured from that instant. A nil slice means all jobs
// arrive at t=0. Placement decisions still happen in submission order
// against the shared cluster; the arrival offsets shift each job's
// execution timeline and therefore which shuffle transfers overlap on the
// network.
func (e *Engine) RunWithArrivals(jobs []*workload.Job, arrivals []float64) (*Result, error) {
	res := &Result{Scheduler: e.sched.Name()}
	if len(jobs) == 0 {
		return res, nil
	}
	if arrivals == nil {
		arrivals = make([]float64, len(jobs))
	}
	if len(arrivals) != len(jobs) {
		return nil, fmt.Errorf("sim: %d arrivals for %d jobs", len(arrivals), len(jobs))
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	for i, a := range arrivals {
		if !(a >= 0) || math.IsInf(a, 1) {
			return nil, fmt.Errorf("sim: arrival %d (job %d) = %v, want a finite non-negative time", i, jobs[i].ID, a)
		}
	}
	ckActive := e.opts.CheckpointSink != nil || e.opts.Resume != nil || e.opts.HaltAfterWave > 0
	if ckActive {
		if err := e.checkpointable(); err != nil {
			return nil, err
		}
	}
	e.used = true
	if !e.opts.Faults.Empty() {
		return e.runFaulty(res, jobs, arrivals)
	}

	states := make([]*jobState, len(jobs))
	nextFlowID := flow.ID(0)
	wave := 0

	if ck := e.opts.Resume; ck != nil {
		var err error
		states, nextFlowID, wave, err = e.restore(ck, jobs, arrivals)
		if err != nil {
			return nil, err
		}
	} else {
		// Round 0: place all reduces plus the first map wave of every job.
		for i, job := range jobs {
			st, err := e.newJob(job, arrivals[i])
			if err != nil {
				return nil, err
			}
			states[i] = st
		}
	}

	// Wave loop: schedule each job's next chunk of maps (first chunk shares a
	// request with the reduces) until all maps are placed. Slots are divided
	// fairly among the jobs still holding maps, as YARN's schedulers grant
	// containers across queues, so an early job cannot starve later ones.
	for {
		// Release every job's previous map wave first; those tasks finish
		// before this wave starts.
		remaining := 0
		reducesPending := 0
		for _, st := range states {
			if st.nextMap >= st.job.NumMaps {
				continue
			}
			remaining++
			if wave == 0 {
				reducesPending += st.job.NumReduces
			}
			for _, c := range st.prevWave {
				if err := e.cl.Unplace(c); err != nil {
					return nil, err
				}
			}
			st.prevWave = nil
		}
		if remaining == 0 {
			break
		}
		quota := (e.cl.TotalFreeSlots(containerDemand) - reducesPending) / remaining
		if quota < 1 {
			quota = 1
		}

		anyWork := false
		for _, st := range states {
			if st.nextMap >= st.job.NumMaps {
				continue
			}
			anyWork = true

			req := &scheduler.Request{
				Cluster:    e.cl,
				Controller: e.ctl,
				Fixed:      make(map[cluster.ContainerID]bool),
				Rand:       e.rng,
			}
			if wave == 0 {
				for r, c := range st.reduceCts {
					req.Tasks = append(req.Tasks, scheduler.Task{
						Job: st.job, Kind: workload.ReduceTask, Index: r, Container: c,
					})
				}
			} else {
				for _, c := range st.reduceCts {
					req.Fixed[c] = true
				}
			}

			batch := st.job.NumMaps - st.nextMap
			if batch > quota {
				batch = quota
			}
			var batchCts []cluster.ContainerID
			for m := st.nextMap; m < st.nextMap+batch; m++ {
				ct, err := e.cl.NewContainer(containerDemand)
				if err != nil {
					return nil, err
				}
				st.mapCts[m] = ct.ID
				st.mapWaveOf[m] = wave
				batchCts = append(batchCts, ct.ID)
				req.Tasks = append(req.Tasks, scheduler.Task{
					Job: st.job, Kind: workload.MapTask, Index: m, Container: ct.ID,
				})
			}
			for m := st.nextMap; m < st.nextMap+batch; m++ {
				st.addFlows(req, m, &nextFlowID)
			}

			if err := e.sched.Schedule(req); err != nil {
				return nil, fmt.Errorf("sim: %s scheduling job %d wave %d: %w", e.sched.Name(), st.job.ID, wave, err)
			}

			// Snapshot routes before anything moves.
			loc := req.Locator()
			for _, fl := range req.Flows {
				if err := e.record(st, fl, loc); err != nil {
					return nil, err
				}
			}
			// Release this wave's flow policies once recorded; their switch
			// load should not constrain later waves (they run earlier in
			// time).
			for _, fl := range req.Flows {
				e.ctl.Uninstall(fl.ID)
			}

			st.prevWave = batchCts
			st.nextMap += batch
			st.numWaves = wave + 1
		}
		if !anyWork {
			break
		}
		// Wave boundary: every policy of the wave is recorded and
		// uninstalled, so the run state is exactly what checkpoint.go
		// serializes. Write the checkpoint first, then honor a halt — the
		// halted run's final checkpoint is the resume point.
		if e.opts.CheckpointSink != nil {
			if err := e.opts.CheckpointSink(e.checkpoint(states, jobs, arrivals, wave, nextFlowID)); err != nil {
				return nil, fmt.Errorf("sim: checkpoint sink at wave %d: %w", wave, err)
			}
		}
		if e.opts.HaltAfterWave > 0 && wave+1 >= e.opts.HaltAfterWave {
			return nil, fmt.Errorf("sim: halt requested after wave %d: %w", wave, ErrHalted)
		}
		wave++
		if wave > 10000 {
			return nil, fmt.Errorf("sim: wave loop did not terminate")
		}
	}

	// Timeline: each job's map waves run back to back from its arrival.
	// Every map fetches an equal share of the job's statistical
	// RemoteMapGB at 1 GB per time unit, so its fetch time is its remote
	// GB. Every flow starts when its map's wave ends.
	for _, st := range states {
		perMap := st.job.RemoteMapGB / float64(st.job.NumMaps)
		waveEnd := make([]float64, st.numWaves)
		st.firstEnd, st.lastEnd = st.arrival, st.arrival
		for w := range waveEnd {
			waveMax := 0.0
			for m := 0; m < st.job.NumMaps; m++ {
				if st.mapWaveOf[m] != w || st.mapCts[m] == cluster.NoContainer {
					continue
				}
				st.remoteGB += perMap
				st.mapTimes[m] = st.job.MapComputeSec[m] + perMap
				if st.mapTimes[m] > waveMax {
					waveMax = st.mapTimes[m]
				}
			}
			st.lastEnd += waveMax
			waveEnd[w] = st.lastEnd
			if w == 0 {
				st.firstEnd = st.lastEnd
			}
		}
		for _, fr := range st.flows {
			fr.startHint = waveEnd[st.mapWaveOf[fr.flow.MapIndex]]
		}
	}
	return e.finish(res, states)
}

// finish is the tail both wave loops share. Every recorded flow of a job
// that did not fail becomes a transfer starting when its map's wave
// ended; all of them share the network in one fluid simulation. A reduce
// is ready when its last inbound flow lands, but never before the job's
// last map wave ends, and its task time runs from the first map-wave end,
// when reducers begin pulling. The run's aggregates follow, and every
// container the run placed is released so the engine can be reused.
func (e *Engine) finish(res *Result, states []*jobState) (*Result, error) {
	var transfers []*netsim.Transfer
	for _, st := range states {
		js := &JobStats{
			JobID:       st.job.ID,
			Benchmark:   st.job.Benchmark,
			Class:       st.job.Class,
			Arrival:     st.arrival,
			MapWaves:    st.numWaves,
			RemoteMapGB: st.remoteGB,
			Failed:      st.failed,
		}
		res.Jobs = append(res.Jobs, js)
		if st.failed {
			continue
		}
		js.MapTimes = st.mapTimes
		for _, fr := range st.flows {
			transfers = append(transfers, &netsim.Transfer{
				ID:    fr.flow.ID,
				Route: fr.route,
				Bytes: fr.flow.SizeGB,
				Start: fr.startHint,
			})
		}
	}
	net, err := e.net.Simulate(transfers)
	if err != nil {
		return nil, err
	}

	var hopSum, delaySum, xferSum float64
	var flowCount int
	var totalBytes float64
	for ji, st := range states {
		if st.failed {
			continue
		}
		js := res.Jobs[ji]
		reduceReady := make([]float64, st.job.NumReduces)
		for r := range reduceReady {
			reduceReady[r] = st.lastEnd
		}
		for _, fr := range st.flows {
			fs := net.Flows[fr.flow.ID]
			if fs == nil {
				return nil, fmt.Errorf("sim: flow %d missing from network result", fr.flow.ID)
			}
			if fs.Finish > reduceReady[fr.flow.ReduceIndex] {
				reduceReady[fr.flow.ReduceIndex] = fs.Finish
			}
			js.ShuffleBytes += fr.flow.SizeGB
			js.TrafficCost += fr.cost
			js.DelayCost += fr.delay
			hopSum += float64(fr.hops)
			delaySum += fr.latT
			xferSum += fs.TransferTime
			flowCount++
			totalBytes += fr.flow.SizeGB
		}
		js.ReduceTimes = make([]float64, st.job.NumReduces)
		jct := st.lastEnd
		for r := 0; r < st.job.NumReduces; r++ {
			finish := reduceReady[r] + st.job.ReduceComputeSec[r]
			js.ReduceTimes[r] = finish - st.firstEnd
			if finish > jct {
				jct = finish
			}
		}
		js.Completion = jct - st.arrival
		res.JCT.Add(jct)
		res.MapTime.AddAll(js.MapTimes)
		res.ReduceTime.AddAll(js.ReduceTimes)
		res.TotalTrafficCost += js.TrafficCost
		res.TotalDelayCost += js.DelayCost
	}
	if flowCount > 0 {
		res.AvgRouteHops = hopSum / float64(flowCount)
		res.AvgShuffleDelayT = delaySum / float64(flowCount)
		res.AvgFlowTransferTime = xferSum / float64(flowCount)
	}
	res.NumFlows = flowCount
	res.ShuffleMakespan = net.Makespan
	if net.Makespan > 0 {
		res.ShuffleThroughput = totalBytes / net.Makespan
	}

	for _, st := range states {
		for _, c := range st.reduceCts {
			if err := e.cl.Unplace(c); err != nil {
				return nil, err
			}
		}
		for _, c := range st.mapCts {
			if c == cluster.NoContainer {
				continue
			}
			if err := e.cl.Unplace(c); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
