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
	"repro/internal/hdfs"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Options tunes the engine.
type Options struct {
	// ContainerDemand is the per-task resource ask (default 1 CPU / 1024 MB).
	ContainerDemand cluster.Resources
	// MapFetchBandwidth is the effective bandwidth (GB per time unit) at
	// which a map pulls remote input; zero defaults to 1.0.
	MapFetchBandwidth float64
	// NameNode, when set, materializes each job's input as HDFS blocks with
	// rack-aware replica placement; per-map remote-input traffic then
	// depends on where the scheduler lands each map (instead of the job's
	// statistical RemoteMapGB), and locality-aware schedulers can consult
	// Request.BlockOf.
	NameNode *hdfs.NameNode
	// StragglerProb makes each map task a straggler with this probability
	// (heterogeneous clusters, the setting of the LATE work the paper
	// cites); stragglers run StragglerFactor times longer.
	StragglerProb float64
	// StragglerFactor is the straggler slowdown multiplier (default 3).
	StragglerFactor float64
	// Speculation enables LATE-style backup tasks: a straggling map is
	// re-executed elsewhere, capping its effective duration at the wave's
	// non-straggler estimate plus one restart of the same length.
	Speculation bool
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
	// fault-free, non-HDFS runs on a fresh engine — the only modes whose
	// full state the format captures.
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

func (o Options) withDefaults() Options {
	if o.ContainerDemand.CPU == 0 && o.ContainerDemand.Memory == 0 {
		o.ContainerDemand = cluster.Resources{CPU: 1, Memory: 1024}
	}
	if o.MapFetchBandwidth <= 0 {
		o.MapFetchBandwidth = 1
	}
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 3
	}
	return o
}

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
	runSeq int
}

// New builds an engine over topo with per-server resources serverRes.
func New(topo *topology.Topology, serverRes cluster.Resources, sched scheduler.Scheduler, opts Options) (*Engine, error) {
	if topo == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if sched == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	opts = opts.withDefaults()
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
	job       *workload.Job
	route     []topology.NodeID
	hops      int
	cost      float64 // rate x hops (Eq. 2)
	delay     float64 // size x route latency, GB·T
	latT      float64 // route latency in T
	startHint float64
}

// jobState is one job's progress through the wave loop. It lives at
// package scope (rather than inside RunWithArrivals) so checkpoint.go can
// serialize and rebuild it at wave boundaries.
type jobState struct {
	job       *workload.Job
	arrival   float64
	reduceCts []cluster.ContainerID
	mapCts    []cluster.ContainerID // index by map task
	mapWaveOf []int
	waveEnd   []float64 // map wave end times
	numWaves  int
	nextMap   int
	prevWave  []cluster.ContainerID // containers of the previous map wave
	flows     []*flowRecord
	file      *hdfs.File // input blocks when HDFS is enabled
	mapFetch  []float64  // per-map remote-read bytes (HDFS mode)
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
	// RemoteMapGB is the map-input bytes read across the network — measured
	// from HDFS replica placement when a NameNode is configured, the job's
	// statistical value otherwise.
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
	e.runSeq++
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
	if !e.opts.Faults.Empty() {
		return e.runFaulty(res, jobs, arrivals)
	}

	states := make([]*jobState, len(jobs))
	nextFlowID := flow.ID(0)
	demand := e.opts.ContainerDemand
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
			st := &jobState{
				job:       job,
				arrival:   arrivals[i],
				mapCts:    make([]cluster.ContainerID, job.NumMaps),
				mapWaveOf: make([]int, job.NumMaps),
			}
			for m := range st.mapCts {
				st.mapCts[m] = cluster.NoContainer
			}
			if e.opts.NameNode != nil {
				blockGB := job.InputGB / float64(job.NumMaps)
				name := fmt.Sprintf("run%d-job%d-input", e.runSeq, job.ID)
				file, err := e.opts.NameNode.Create(name, job.InputGB, blockGB)
				if err != nil {
					return nil, err
				}
				st.file = file
				st.mapFetch = make([]float64, job.NumMaps)
			}
			states[i] = st

			// Reduce containers.
			for r := 0; r < job.NumReduces; r++ {
				ct, err := e.cl.NewContainer(demand)
				if err != nil {
					return nil, err
				}
				st.reduceCts = append(st.reduceCts, ct.ID)
			}
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
		quota := (e.cl.TotalFreeSlots(demand) - reducesPending) / remaining
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
			if st.file != nil {
				req.BlockOf = make(map[cluster.ContainerID]hdfs.BlockID)
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
			for k := 0; k < batch; k++ {
				m := st.nextMap + k
				ct, err := e.cl.NewContainer(demand)
				if err != nil {
					return nil, err
				}
				st.mapCts[m] = ct.ID
				st.mapWaveOf[m] = wave
				batchCts = append(batchCts, ct.ID)
				req.Tasks = append(req.Tasks, scheduler.Task{
					Job: st.job, Kind: workload.MapTask, Index: m, Container: ct.ID,
				})
				if st.file != nil {
					bi := m
					if bi >= len(st.file.Blocks) {
						bi = len(st.file.Blocks) - 1
					}
					req.BlockOf[ct.ID] = st.file.Blocks[bi]
				}
			}

			// Flows from this wave's maps to every reduce.
			for k := 0; k < batch; k++ {
				m := st.nextMap + k
				for r := 0; r < st.job.NumReduces; r++ {
					size := st.job.Shuffle[m][r]
					if size <= 0 {
						continue
					}
					fl := &flow.Flow{
						ID: nextFlowID, JobID: st.job.ID, MapIndex: m, ReduceIndex: r,
						Src: st.mapCts[m], Dst: st.reduceCts[r],
						SizeGB: size, Rate: size,
					}
					nextFlowID++
					req.Flows = append(req.Flows, fl)
				}
			}

			if err := e.sched.Schedule(req); err != nil {
				return nil, fmt.Errorf("sim: %s scheduling job %d wave %d: %w", e.sched.Name(), st.job.ID, wave, err)
			}

			// Snapshot routes before anything moves.
			loc := req.Locator()
			cm := e.ctl.CostModel()
			for _, fl := range req.Flows {
				pol := e.ctl.Policy(fl.ID)
				if pol == nil {
					return nil, fmt.Errorf("sim: flow %d has no policy after %s", fl.ID, e.sched.Name())
				}
				route, err := cm.RouteNodes(fl, pol, loc)
				if err != nil {
					return nil, err
				}
				hops, err := cm.RouteHops(fl, pol, loc)
				if err != nil {
					return nil, err
				}
				cost, err := cm.FlowCost(fl, pol, loc)
				if err != nil {
					return nil, err
				}
				walk, err := e.net.ExpandRoute(route)
				if err != nil {
					return nil, err
				}
				latT := e.ctl.Oracle().PathLatency(walk)
				st.flows = append(st.flows, &flowRecord{
					flow: fl, job: st.job,
					route: route, hops: hops, cost: cost,
					delay: fl.SizeGB * latT, latT: latT,
				})
			}
			// With HDFS enabled, measure each placed map's remote input read
			// from its nearest replica.
			if st.file != nil {
				for k := 0; k < batch; k++ {
					m := st.nextMap + k
					srv := e.cl.Container(st.mapCts[m]).Server()
					gb, err := e.opts.NameNode.RemoteReadGB(st.file, req.BlockOf[st.mapCts[m]], srv)
					if err != nil {
						return nil, err
					}
					st.mapFetch[m] = gb
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

	// Timeline: map wave ends per job. Without HDFS, remote input is the
	// job's statistical RemoteMapGB spread over its maps; with HDFS, it is
	// each map's measured nearest-replica read.
	for _, st := range states {
		st.waveEnd = make([]float64, st.numWaves)
		statFetch := 0.0
		if st.job.NumMaps > 0 {
			statFetch = st.job.RemoteMapGB / float64(st.job.NumMaps) / e.opts.MapFetchBandwidth
		}
		prevEnd := st.arrival
		mapTimes := make([]float64, st.job.NumMaps)
		var remoteGB float64
		for w := 0; w < st.numWaves; w++ {
			waveMax := 0.0
			for m := 0; m < st.job.NumMaps; m++ {
				if st.mapWaveOf[m] != w || st.mapCts[m] == cluster.NoContainer {
					continue
				}
				fetch := statFetch
				if st.file != nil {
					fetch = st.mapFetch[m] / e.opts.MapFetchBandwidth
					remoteGB += st.mapFetch[m]
				} else {
					remoteGB += st.job.RemoteMapGB / float64(st.job.NumMaps)
				}
				d := st.job.MapComputeSec[m] + fetch
				if e.opts.StragglerProb > 0 && e.rng.Float64() < e.opts.StragglerProb {
					straggled := d * e.opts.StragglerFactor
					if e.opts.Speculation {
						// LATE: a backup launches once the task exceeds its
						// estimate; the winner finishes around two nominal
						// durations.
						capped := 2 * d
						if straggled < capped {
							capped = straggled
						}
						d = capped
					} else {
						d = straggled
					}
				}
				mapTimes[m] = d
				if d > waveMax {
					waveMax = d
				}
			}
			st.waveEnd[w] = prevEnd + waveMax
			prevEnd = st.waveEnd[w]
		}
		js := &JobStats{
			JobID:       st.job.ID,
			Benchmark:   st.job.Benchmark,
			Class:       st.job.Class,
			Arrival:     st.arrival,
			MapTimes:    mapTimes,
			MapWaves:    st.numWaves,
			RemoteMapGB: remoteGB,
		}
		res.Jobs = append(res.Jobs, js)
	}

	// Shuffle phase: every flow becomes a transfer starting at its map
	// wave's end.
	var transfers []*netsim.Transfer
	for _, st := range states {
		for _, fr := range st.flows {
			start := st.waveEnd[st.mapWaveOf[fr.flow.MapIndex]]
			fr.startHint = start
			transfers = append(transfers, &netsim.Transfer{
				ID:    fr.flow.ID,
				Route: fr.route,
				Bytes: fr.flow.SizeGB,
				Start: start,
			})
		}
	}
	net, err := e.net.Simulate(transfers)
	if err != nil {
		return nil, err
	}

	// Reduce completions and job stats.
	var hopSum, delaySum, xferSum float64
	var flowCount int
	var totalBytes float64
	for ji, st := range states {
		js := res.Jobs[ji]
		reduceReady := make([]float64, st.job.NumReduces)
		// A reduce cannot finish before the maps complete even with no data.
		lastWaveEnd := 0.0
		if st.numWaves > 0 {
			lastWaveEnd = st.waveEnd[st.numWaves-1]
		}
		for r := range reduceReady {
			reduceReady[r] = lastWaveEnd
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
		jct := lastWaveEnd
		for r := 0; r < st.job.NumReduces; r++ {
			finish := reduceReady[r] + st.job.ReduceComputeSec[r]
			// The reduce "task time" spans from shuffle start (first wave
			// end, when reducers begin pulling) to its completion.
			start := st.arrival
			if st.numWaves > 0 {
				start = st.waveEnd[0]
			}
			js.ReduceTimes[r] = finish - start
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

	// The run is over: release every container it placed so the engine can
	// be reused for further runs against the same cluster.
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
