package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// FailureResult records the switch-degradation recovery experiment: an
// extension exercising the controller's dynamic policy management (the
// paper's Figure 2 scenario made operational — a switch loses capacity and
// the affected shuffle flows are rerouted onto same-type alternatives).
type FailureResult struct {
	// CostBefore is the total shuffle cost with the healthy fabric.
	CostBefore float64
	// OverloadedAfterFailure counts switches pushed over capacity by the
	// degradation.
	OverloadedAfterFailure int
	// FlowsRerouted is how many flows the controller moved to recover.
	FlowsRerouted int
	// CostAfter is the total cost on the degraded fabric after recovery.
	CostAfter float64
	// OverloadedAfterRecovery must be zero for successful recovery.
	OverloadedAfterRecovery int
}

// FailureRecovery schedules a shuffle-heavy wave with Hit, halves the
// capacity of the hottest aggregation-tier switch, and lets faults.React,
// the one reroute path, shed the overload: the largest-rate flow through
// the first overloaded switch moves first, re-solved by Algorithm 1 on the
// degraded fabric. Fat-tree fabrics always offer same-type alternatives,
// so recovery must succeed with zero remaining overload and only a modest
// cost increase; a flow React has to drop is an error.
func FailureRecovery(cfg Config) (*FailureResult, error) {
	cfg = cfg.withDefaults()
	nJobs := 4
	if cfg.Quick {
		nJobs = 2
	}
	topo, err := topology.NewFatTree(4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
	if err != nil {
		return nil, err
	}
	ctl := controller.New(topo)
	// Single-wave request: size jobs so every task fits at once.
	wcfg := workload.DefaultConfig()
	wcfg.MinInputGB, wcfg.MaxInputGB, wcfg.MaxMaps = 2, 6, 6
	g, err := workload.NewGenerator(wcfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var jobs []*workload.Job
	for i := 0; i < nJobs; i++ {
		j, err := g.SampleClass(workload.ShuffleHeavy)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	s, err := newScheduler("hit")
	if err != nil {
		return nil, err
	}
	req, _, err := scheduler.NewJobRequest(cl, ctl, jobs, cluster.Resources{CPU: 1, Memory: 1024}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	if err := s.Schedule(req); err != nil {
		return nil, err
	}
	loc := req.Locator()
	res := &FailureResult{}
	res.CostBefore, err = ctl.TotalCost(req.Flows, loc)
	if err != nil {
		return nil, err
	}

	// Degrade the hottest aggregation switch to half its current load.
	var hottest topology.NodeID = topology.None
	var maxLoad float64
	for _, w := range ctl.Oracle().SwitchesOfType(topology.TypeAggregation) {
		if l := ctl.Load(w); l > maxLoad {
			hottest, maxLoad = w, l
		}
	}
	if hottest == topology.None || maxLoad <= 0 {
		return nil, fmt.Errorf("experiments: no loaded aggregation switch to degrade")
	}
	if err := topo.SetSwitchCapacity(hottest, maxLoad/2); err != nil {
		return nil, err
	}
	res.OverloadedAfterFailure = len(ctl.OverloadedSwitches())

	eps := make([]faults.FlowEndpoints, len(req.Flows))
	for i, f := range req.Flows {
		eps[i] = faults.FlowEndpoints{Flow: f, Src: loc.ServerOf(f.Src), Dst: loc.ServerOf(f.Dst)}
	}
	react, err := faults.React(ctl, eps)
	if err != nil {
		return nil, err
	}
	if len(react.Dropped) > 0 {
		return nil, fmt.Errorf("experiments: recovery dropped flows %v: no feasible reroute", react.Dropped)
	}
	res.FlowsRerouted = react.Rerouted
	res.OverloadedAfterRecovery = len(ctl.OverloadedSwitches())
	res.CostAfter, err = ctl.TotalCost(req.Flows, loc)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FailureSweepRow is one (fault-rate, severity) cell of the sweep, averaged
// over Config.Repeats seeds.
type FailureSweepRow struct {
	// Rate is the expected fabric faults per 100 T of horizon.
	Rate float64
	// Severity scales degrade factors and task-level fault probabilities.
	Severity float64
	// BaselineJCT is the mean JCT of the identical workload with no faults.
	BaselineJCT float64
	// FaultyJCT is the mean JCT of completed jobs under the fault plan.
	FaultyJCT float64
	// Inflation is FaultyJCT / BaselineJCT.
	Inflation float64
	// RecoveryLatency is the mean delay between a fault firing and the
	// reactor repairing the fabric (wave-quantized, in T).
	RecoveryLatency float64
	// Rerouted and Dropped count flows the reactor re-solved or shed.
	Rerouted, Dropped float64
	// Evictions counts containers displaced by server crashes; Retries
	// counts map re-attempts after task failures or evictions.
	Evictions, Retries float64
	// FailedJobs counts jobs that exhausted every retry budget.
	FailedJobs float64
}

// FailureSweepResult is the seeded fault-rate sweep: the same workload run
// under a grid of randomized fault schedules (rate x severity), each cell
// compared against a zero-fault baseline of the identical seed.
type FailureSweepResult struct {
	Rows []FailureSweepRow
}

// FailureSweep runs the Hit scheduler over a fault-rate x severity grid on
// the redundant fat-tree fabric. Each cell draws Repeats randomized
// timelines (seeded, so reruns are bit-identical), runs the full simulator
// fault path — retries, speculation, reactor reroutes — and reports JCT
// inflation over the zero-fault baseline plus recovery latency.
func FailureSweep(cfg Config) (*FailureSweepResult, error) {
	cfg = cfg.withDefaults()
	rates := []float64{4, 8, 16}
	sevs := []float64{0.3, 0.6, 0.9}
	nJobs := 8
	if cfg.Quick {
		rates = []float64{4, 16}
		sevs = []float64{0.6}
		nJobs = 3
	}

	// One run of the rep's workload on a fresh fabric; a nil plan is the
	// zero-fault baseline (identical seed, legacy simulator path).
	run := func(seed int64, plan func(*topology.Topology) *faults.Plan) (*sim.Result, error) {
		topo, err := topology.NewFatTree(4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
		if err != nil {
			return nil, err
		}
		wcfg := workload.DefaultConfig()
		wcfg.MinInputGB, wcfg.MaxInputGB, wcfg.MaxMaps = 2, 5, 6
		g, err := workload.NewGenerator(wcfg, seed)
		if err != nil {
			return nil, err
		}
		jobs := g.Workload(nJobs)
		opts := sim.Options{Seed: seed}
		if plan != nil {
			opts.Faults = plan(topo)
		}
		eng, err := sim.New(topo, cluster.Resources{CPU: 4, Memory: 8192}, &core.HitScheduler{}, opts)
		if err != nil {
			return nil, err
		}
		return eng.Run(jobs)
	}

	res := &FailureSweepResult{}
	// Baselines depend only on the seed, not on the grid cell: run them once.
	baseJCT := make([]float64, cfg.Repeats)
	for rep := 0; rep < cfg.Repeats; rep++ {
		r, err := run(cfg.Seed+int64(rep)*941, nil)
		if err != nil {
			return nil, err
		}
		baseJCT[rep] = r.JCT.Mean()
	}

	for _, rate := range rates {
		for _, sev := range sevs {
			row := FailureSweepRow{Rate: rate, Severity: sev}
			for i := 0; i < cfg.Repeats; i++ {
				seed := cfg.Seed + int64(i)*941
				r, err := run(seed, func(topo *topology.Topology) *faults.Plan {
					return &faults.Plan{
						Events: faults.GenerateTimeline(rand.New(rand.NewSource(seed)), topo, faults.Spec{
							Horizon:  80,
							Rate:     rate,
							Severity: sev,
							MTTR:     10,
							// Crash-heavy mix: crashes are what exercise the
							// reactor's reroutes and the cluster's evictions.
							SwitchCrashW: 2, SwitchDegradeW: 1, LinkDegradeW: 1, ServerCrashW: 2,
						}),
						Tasks: faults.TaskModel{
							FailureProb:   0.1 * sev,
							StragglerProb: 0.1 * sev,
							Speculation:   true,
							Seed:          uint64(seed),
						},
					}
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: failsweep rate=%g sev=%g seed=%d: %w", rate, sev, seed, err)
				}
				rep := r.Report
				if rep == nil {
					return nil, fmt.Errorf("experiments: failsweep: fault run returned no report")
				}
				row.BaselineJCT += baseJCT[i]
				row.FaultyJCT += r.JCT.Mean()
				if rep.ReactedFaults > 0 {
					row.RecoveryLatency += rep.RecoveryLatencySum / float64(rep.ReactedFaults)
				}
				row.Rerouted += float64(rep.ReroutedFlows)
				row.Dropped += float64(len(rep.DroppedFlows))
				row.Evictions += float64(rep.Evictions)
				row.Retries += float64(rep.Retries)
				row.FailedJobs += float64(len(rep.FailedJobs))
			}
			n := float64(cfg.Repeats)
			row.BaselineJCT /= n
			row.FaultyJCT /= n
			row.RecoveryLatency /= n
			row.Rerouted /= n
			row.Dropped /= n
			row.Evictions /= n
			row.Retries /= n
			row.FailedJobs /= n
			if row.BaselineJCT > 0 {
				row.Inflation = row.FaultyJCT / row.BaselineJCT
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render formats the sweep table.
func (r *FailureSweepResult) Render() string {
	tb := metrics.NewTable("Fault-rate sweep: JCT inflation and recovery latency vs fault load (hit)",
		"rate/100T", "severity", "JCT base", "JCT faulty", "inflation", "recovery T", "rerouted", "dropped", "failed jobs")
	for _, row := range r.Rows {
		tb.AddRowf([]string{"%.0f", "%.1f", "%.1f", "%.1f", "%.2f", "%.1f", "%.1f", "%.1f", "%.1f"},
			row.Rate, row.Severity, row.BaselineJCT, row.FaultyJCT, row.Inflation,
			row.RecoveryLatency, row.Rerouted, row.Dropped, row.FailedJobs)
	}
	return tb.String()
}

// Render formats the recovery report.
func (r *FailureResult) Render() string {
	tb := metrics.NewTable("Failure injection: aggregation switch loses half its capacity",
		"metric", "value")
	tb.AddRowf([]string{"%s", "%.1f"}, "shuffle cost before failure", r.CostBefore)
	tb.AddRowf([]string{"%s", "%d"}, "overloaded switches after failure", r.OverloadedAfterFailure)
	tb.AddRowf([]string{"%s", "%d"}, "flows rerouted by controller", r.FlowsRerouted)
	tb.AddRowf([]string{"%s", "%d"}, "overloaded switches after recovery", r.OverloadedAfterRecovery)
	tb.AddRowf([]string{"%s", "%.1f"}, "shuffle cost after recovery", r.CostAfter)
	return tb.String()
}
