package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/netsim"
	"repro/internal/netstate"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// opRecord is what the determinism guard compares for one op: its Eq. 2
// shuffle cost and its completed jobs' JCTs.
type opRecord struct {
	cost     float64
	jctSum   float64
	jobsDone int
}

// scenario is one workload's set-up state: the generated input pool and any
// shared fabric.
type scenario interface {
	// exec runs pool op k: the timed op. It returns a verifier that checks
	// the op's outputs, untimed, and returns the op's record.
	exec(k int, h *hooks) (verify func() (opRecord, error), err error)
	// build builds one more of the workload's fabrics, which the traced run
	// times once even where ops share a fabric built at set-up.
	build() (*topology.Topology, error)
	// inputGB is the total job input of pool op k.
	inputGB(k int) float64
}

// warmUpOps picks the pool ops set-up warms up with: the two of median
// input size, so that set-up costs about the same for every seed.
func warmUpOps(sc scenario, poolSize int) []int {
	idx := make([]int, poolSize)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sc.inputGB(idx[a]) < sc.inputGB(idx[b]) })
	return idx[poolSize/2-1 : poolSize/2+1]
}

// benchWorkload is one named workload. Every op runs one entry of a pool of
// poolSize inputs generated from the seed; the timed loop cycles through the
// pool, so each input is measured several times and the pool's total
// shuffle cost is fixed per seed.
type benchWorkload struct {
	name     string
	poolSize int
	traceOps int // ops in the traced run
	healthy  bool
	setup    func(seed int64, poolSize int) (scenario, error)
}

var workloads = []benchWorkload{
	{name: "testbed-fig6", poolSize: 40, traceOps: 8, healthy: true, setup: newTestbed},
	{name: "rack10k-plan", poolSize: 48, traceOps: 3, healthy: true, setup: newRackPlan},
	{name: "fattree-faults", poolSize: 40, traceOps: 8, setup: newFatTreeFaults},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// Streams of derive: each kind of input draws from its own seed stream.
const (
	streamPool   = 1 // pool layout: benchmark mix and input sizes
	streamJobs   = 2 // per-op job synthesis
	streamEngine = 3 // per-op engine and scheduler RNG
	streamFaults = 4 // per-op fault timeline
)

// derive mixes the workload seed with a stream and an index into an
// independent non-negative seed (the splitmix64 finalizer).
func derive(seed int64, stream, i uint64) int64 {
	x := uint64(seed) + stream*0x9e3779b97f4a7c15 + (i+1)*0xd1b54a32d192ed03
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// stratifiedJobs lays out n Table-1 jobs for a pool: benchmarks in exact
// Table-1 proportions among benches and input sizes stratified over
// [minGB, maxGB), both shuffled. The pool's mix is then the same for every
// seed; the seed moves its order, the sizes within each stratum and every
// per-job draw, which keeps pool-level figures comparable across seeds.
func stratifiedJobs(rng *rand.Rand, benches []workload.Benchmark, n int, minGB, maxGB float64) (names []string, inputs []float64, err error) {
	total := 0
	for _, b := range benches {
		total += int(b.Share)
	}
	for _, b := range benches {
		if n*int(b.Share)%total != 0 {
			return nil, nil, fmt.Errorf("pool of %d jobs cannot hold the Table-1 share of %s exactly", n, b.Name)
		}
		for i := 0; i < n*int(b.Share)/total; i++ {
			names = append(names, b.Name)
		}
	}
	for j := 0; j < n; j++ {
		inputs = append(inputs, minGB+(maxGB-minGB)*(float64(j)+rng.Float64())/float64(n))
	}
	rng.Shuffle(n, func(a, b int) { names[a], names[b] = names[b], names[a] })
	rng.Shuffle(n, func(a, b int) { inputs[a], inputs[b] = inputs[b], inputs[a] })
	return names, inputs, nil
}

// synthesize builds each op's jobs from the pool layout, perJob jobs per op,
// with a generator seeded per op so an op's inputs depend only on the seed
// and its index.
func synthesize(seed int64, cfg workload.Config, names []string, inputs []float64, perJob int) ([][]*workload.Job, error) {
	ops := make([][]*workload.Job, len(names)/perJob)
	for k := range ops {
		g, err := workload.NewGenerator(cfg, derive(seed, streamJobs, uint64(k)))
		if err != nil {
			return nil, err
		}
		for j := k * perJob; j < (k+1)*perJob; j++ {
			job, err := g.Job(names[j], inputs[j])
			if err != nil {
				return nil, err
			}
			ops[k] = append(ops[k], job)
		}
	}
	return ops, nil
}

// simScenario runs the full simulator: per op a fresh fabric, a fresh
// engine with the wrapped Hit scheduler, and Engine.Run on the op's jobs.
type simScenario struct {
	seed   int64
	fabric func() (*topology.Topology, error)
	server cluster.Resources
	jobs   [][]*workload.Job
	plan   func(k int, topo *topology.Topology) *faults.Plan // nil: fault-free
}

const jobsPerSimOp = 8

// mixedPool lays out a pool of sim ops, each jobsPerSimOp Table-1 mixed
// jobs of 4–16 GB input (16 maps and 8 reduces at 256 MB splits).
func mixedPool(seed int64, poolSize int) ([][]*workload.Job, error) {
	rng := rand.New(rand.NewSource(derive(seed, streamPool, 0)))
	names, inputs, err := stratifiedJobs(rng, workload.Catalog(), poolSize*jobsPerSimOp, 4, 16)
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultConfig()
	cfg.MinInputGB, cfg.MaxInputGB, cfg.MaxMaps = 4, 16, 16
	return synthesize(seed, cfg, names, inputs, jobsPerSimOp)
}

// newTestbed is testbed-fig6: Figure 6's full-size scenario on the §7.1
// testbed tree (64 hosts, 10 switches, bandwidth 0.08, switch capacity 48,
// 4:1 oversubscription), servers of 2 CPU / 8192 MB.
func newTestbed(seed int64, poolSize int) (scenario, error) {
	jobs, err := mixedPool(seed, poolSize)
	if err != nil {
		return nil, err
	}
	return &simScenario{
		seed: seed,
		fabric: func() (*topology.Topology, error) {
			return topology.NewPaperTree(topology.LinkParams{Bandwidth: 0.08, SwitchCapacity: 48, Oversubscription: 4})
		},
		server: cluster.Resources{CPU: 2, Memory: 8192},
		jobs:   jobs,
	}, nil
}

// newFatTreeFaults is fattree-faults: a k=8 fat-tree (128 servers,
// bandwidth 1, switch capacity 64, servers of 4 CPU / 8192 MB) under
// FailureSweep's crash-heavy fault mix at rate 16, severity 0.6.
func newFatTreeFaults(seed int64, poolSize int) (scenario, error) {
	jobs, err := mixedPool(seed, poolSize)
	if err != nil {
		return nil, err
	}
	return &simScenario{
		seed: seed,
		fabric: func() (*topology.Topology, error) {
			return topology.NewFatTree(8, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
		},
		server: cluster.Resources{CPU: 4, Memory: 8192},
		jobs:   jobs,
		plan: func(k int, topo *topology.Topology) *faults.Plan {
			const severity = 0.6
			return &faults.Plan{
				Events: faults.GenerateTimeline(rand.New(rand.NewSource(derive(seed, streamFaults, uint64(k)))), topo, faults.Spec{
					Horizon: 80, Rate: 16, Severity: severity, MTTR: 10,
					SwitchCrashW: 2, SwitchDegradeW: 1, LinkDegradeW: 1, ServerCrashW: 2,
				}),
				Tasks: faults.TaskModel{
					FailureProb:   0.1 * severity,
					StragglerProb: 0.1 * severity,
					Speculation:   true,
					Seed:          uint64(derive(seed, streamEngine, uint64(k))),
				},
			}
		},
	}, nil
}

func (s *simScenario) build() (*topology.Topology, error) { return s.fabric() }

func (s *simScenario) inputGB(k int) float64 {
	var gb float64
	for _, j := range s.jobs[k] {
		gb += j.InputGB
	}
	return gb
}

func (s *simScenario) exec(k int, h *hooks) (func() (opRecord, error), error) {
	sp := h.tr.begin("topology.build", h.parent)
	topo, err := s.fabric()
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if h.layer != nil {
		// sim.New builds the cluster and controller inside; time the same
		// constructors on this fabric as a probe.
		h.aside("bench.probe", func() {
			sp := h.tr.begin("cluster.New", h.block)
			_, err = cluster.New(topo, s.server)
			h.tr.end(sp)
			sp = h.tr.begin("controller.New", h.block)
			controller.New(topo)
			h.tr.end(sp)
		})
		if err != nil {
			return nil, err
		}
	}
	opts := sim.Options{Seed: derive(s.seed, streamEngine, uint64(k))}
	if s.plan != nil {
		opts.Faults = s.plan(k, topo)
	}
	sp = h.tr.begin("sim.New", h.parent)
	eng, err := sim.New(topo, s.server, &hitWrap{h: h}, opts)
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	h.topo, h.cl, h.ctl = topo, eng.Cluster(), eng.Controller()
	runSpan := h.tr.begin("sim.Run", h.parent)
	op := h.parent
	h.parent = runSpan
	res, err := eng.Run(s.jobs[k])
	h.parent = op
	h.tr.end(runSpan)
	if err != nil {
		return nil, err
	}
	return func() (opRecord, error) { return s.verify(k, h, res) }, nil
}

// verify checks a simulation's outputs: the cluster's invariants hold, and
// every job either completed with a positive JCT or is listed as failed by
// the fault report.
func (s *simScenario) verify(k int, h *hooks, res *sim.Result) (opRecord, error) {
	if err := h.cl.Validate(); err != nil {
		return opRecord{}, err
	}
	if len(res.Jobs) != len(s.jobs[k]) {
		return opRecord{}, fmt.Errorf("%d job stats for %d jobs", len(res.Jobs), len(s.jobs[k]))
	}
	failed := make(map[int]bool)
	if res.Report != nil {
		for _, id := range res.Report.FailedJobs {
			failed[id] = true
		}
	}
	for _, js := range res.Jobs {
		switch {
		case failed[js.JobID] != js.Failed:
			return opRecord{}, fmt.Errorf("job %d: failed flag %v disagrees with the fault report", js.JobID, js.Failed)
		case !js.Failed && js.Completion <= 0:
			return opRecord{}, fmt.Errorf("job %d completed with JCT %v", js.JobID, js.Completion)
		}
	}
	rec := opRecord{cost: res.TotalTrafficCost}
	for _, v := range res.JCT.Values() {
		rec.jctSum += v
		rec.jobsDone++
	}
	if h.layer != nil {
		h.layer.run(res)
	}
	return rec, nil
}

// planScenario is rack10k-plan: hitplugin.Submit's planning step on a
// shared 10,000-server rack tree. Each op builds a fresh cluster and
// controller and schedules one shuffle-heavy job of up to 96 maps.
type planScenario struct {
	seed int64
	topo *topology.Topology
	jobs []*workload.Job
}

var (
	planServer = cluster.Resources{CPU: 2, Memory: 8192}
	planDemand = cluster.Resources{CPU: 1, Memory: 1024}
)

func rackFabric() (*topology.Topology, error) {
	return topology.NewTreeWithRacks(3, 10, 100, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
}

func newRackPlan(seed int64, poolSize int) (scenario, error) {
	rng := rand.New(rand.NewSource(derive(seed, streamPool, 0)))
	cfg := workload.DefaultConfig()
	cfg.MaxMaps = 96
	names, inputs, err := stratifiedJobs(rng, workload.CatalogByClass(workload.ShuffleHeavy), poolSize, cfg.MinInputGB, cfg.MaxInputGB)
	if err != nil {
		return nil, err
	}
	ops, err := synthesize(seed, cfg, names, inputs, 1)
	if err != nil {
		return nil, err
	}
	s := &planScenario{seed: seed}
	for _, op := range ops {
		s.jobs = append(s.jobs, op[0])
	}
	if s.topo, err = rackFabric(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *planScenario) build() (*topology.Topology, error) { return rackFabric() }

func (s *planScenario) inputGB(k int) float64 { return s.jobs[k].InputGB }

func (s *planScenario) exec(k int, h *hooks) (func() (opRecord, error), error) {
	sp := h.tr.begin("cluster.New", h.parent)
	cl, err := cluster.New(s.topo, planServer)
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = h.tr.begin("controller.New", h.parent)
	ctl := controller.New(s.topo)
	h.tr.end(sp)
	sp = h.tr.begin("scheduler.NewJobRequest", h.parent)
	req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{s.jobs[k]}, planDemand,
		rand.New(rand.NewSource(derive(s.seed, streamEngine, uint64(k)))))
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	h.topo, h.cl, h.ctl = s.topo, cl, ctl
	if err := (&hitWrap{h: h}).Schedule(req); err != nil {
		return nil, err
	}
	return func() (opRecord, error) { return s.verify(k, h, req) }, nil
}

// verify checks the plan: the cluster's invariants hold, every task is
// placed, and every flow is priced. The record's JCT is the planned job's
// estimated completion (plannedJCT).
func (s *planScenario) verify(k int, h *hooks, req *scheduler.Request) (opRecord, error) {
	if err := h.cl.Validate(); err != nil {
		return opRecord{}, err
	}
	for _, t := range req.Tasks {
		if !h.cl.Container(t.Container).Placed() {
			return opRecord{}, fmt.Errorf("container %d left unplaced", t.Container)
		}
	}
	loc := req.Locator()
	cost, err := h.ctl.TotalCost(req.Flows, loc)
	if err != nil {
		return opRecord{}, err
	}
	jct, err := plannedJCT(s.topo, s.jobs[k], req.Flows, h.ctl, loc)
	if err != nil {
		return opRecord{}, err
	}
	return opRecord{cost: cost, jctSum: jct, jobsDone: 1}, nil
}

// plannedJCT estimates one planned job's completion the way the simulator
// times a single-wave job — maps run their compute plus remote input fetch,
// the shuffle starts when the map wave ends, a reduce finishes its compute
// after its last inbound transfer — but with every transfer held at its
// max-min fair rate with all of them active (netsim FairShare): a full
// Simulate of a few thousand transfers costs more than the op itself.
func plannedJCT(topo *topology.Topology, job *workload.Job, flows []*flow.Flow, ctl *controller.Controller, loc flow.Locator) (float64, error) {
	waveEnd := 0.0
	for _, c := range job.MapComputeSec {
		waveEnd = max(waveEnd, c+job.RemoteMapGB/float64(job.NumMaps))
	}
	trs := make([]*netsim.Transfer, 0, len(flows))
	for _, f := range flows {
		route, err := ctl.CostModel().RouteNodes(f, ctl.Policy(f.ID), loc)
		if err != nil {
			return 0, err
		}
		trs = append(trs, &netsim.Transfer{ID: f.ID, Route: route, Bytes: f.SizeGB})
	}
	rates, err := netsim.NewNetwork(netstate.New(topo)).FairShare(trs)
	if err != nil {
		return 0, err
	}
	ready := make([]float64, job.NumReduces)
	for r := range ready {
		ready[r] = waveEnd
	}
	for i, f := range flows {
		switch {
		case math.IsInf(rates[i], 1): // same-server transfer
		case rates[i] > 0:
			ready[f.ReduceIndex] = max(ready[f.ReduceIndex], waveEnd+f.SizeGB/rates[i])
		default:
			return 0, fmt.Errorf("flow %d starved: fair rate %v", f.ID, rates[i])
		}
	}
	jct := waveEnd
	for r, t := range ready {
		jct = max(jct, t+job.ReduceComputeSec[r])
	}
	return jct, nil
}
