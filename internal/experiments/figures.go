package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Figures 6 & 7 (shared runs: testbed workload on the paper tree)
// ---------------------------------------------------------------------------

// SchedulerRun aggregates one scheduler's samples across repeats.
type SchedulerRun struct {
	Name       string
	JCT        metrics.Sample
	MapTime    metrics.Sample
	ReduceTime metrics.Sample
	// Figure 7 quantities (averaged over repeats).
	AvgRouteHops     float64
	AvgShuffleDelayT float64
	AvgTransferTime  float64
	// Cost / throughput aggregates.
	TotalTrafficCost float64
	Throughput       float64
}

// Fig6Result carries per-scheduler distributions for Figures 6(a–c) and the
// per-flow route metrics for Figures 7(a–b).
type Fig6Result struct {
	Runs []*SchedulerRun // capacity, pna, hit order
	// JCTImprovementVsCapacity / VsPNA summarize Figure 6(a) the way the
	// abstract quotes it (28% and 11%).
	JCTImprovementVsCapacity float64
	JCTImprovementVsPNA      float64
}

// Figure6 runs the Table 1 workload mix on the 64-host testbed tree under
// Capacity, PNA and Hit, collecting the distributions Figures 6 and 7 plot.
func Figure6(cfg Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	nJobs := 8
	// Slow links relative to compute make the shuffle phase dominate job
	// completion, as it does on the paper's shared multi-tenant network
	// (§2.1); 0.08 GB per time unit reproduces the paper's headline JCT
	// improvement.
	bandwidth := 0.08
	if cfg.Quick {
		nJobs = 3
	}
	res := &Fig6Result{}
	cells, err := runCells(SchedulerNames(), cfg.Repeats, func(name string, rep int) (*topology.Topology, []*workload.Job, int64, error) {
		seed := cfg.Seed + int64(rep)*977
		g, err := jobGen(cfg, seed)
		if err != nil {
			return nil, nil, 0, err
		}
		topo, err := testbedTopology(bandwidth)
		if err != nil {
			return nil, nil, 0, err
		}
		return topo, g.Workload(nJobs), seed, nil
	})
	if err != nil {
		return nil, err
	}
	for si, name := range SchedulerNames() {
		run := &SchedulerRun{Name: name}
		var hops, delayT, xfer, tput float64
		for _, r := range cells[si] {
			run.JCT.AddAll(r.JCT.Values())
			run.MapTime.AddAll(r.MapTime.Values())
			run.ReduceTime.AddAll(r.ReduceTime.Values())
			hops += r.AvgRouteHops
			delayT += r.AvgShuffleDelayT
			xfer += r.AvgFlowTransferTime
			tput += r.ShuffleThroughput
			run.TotalTrafficCost += r.TotalTrafficCost
		}
		n := float64(cfg.Repeats)
		run.AvgRouteHops = hops / n
		run.AvgShuffleDelayT = delayT / n
		run.AvgTransferTime = xfer / n
		run.Throughput = tput / n
		res.Runs = append(res.Runs, run)
	}
	capMean := res.Runs[0].JCT.Mean()
	pnaMean := res.Runs[1].JCT.Mean()
	hitMean := res.Runs[2].JCT.Mean()
	res.JCTImprovementVsCapacity = metrics.Improvement(capMean, hitMean)
	res.JCTImprovementVsPNA = metrics.Improvement(pnaMean, hitMean)
	return res, nil
}

// Run returns the named scheduler's aggregate, or nil.
func (r *Fig6Result) Run(name string) *SchedulerRun {
	for _, run := range r.Runs {
		if run.Name == name {
			return run
		}
	}
	return nil
}

// Render formats Figure 6's summary (means and key percentiles; the CDF
// points are available via each run's samples).
func (r *Fig6Result) Render() string {
	tb := metrics.NewTable("Figure 6: job completion, map and reduce task times",
		"scheduler", "JCT mean", "JCT p50", "JCT p90", "map mean", "reduce mean")
	for _, run := range r.Runs {
		tb.AddRowf([]string{"%s", "%.1f", "%.1f", "%.1f", "%.1f", "%.1f"},
			run.Name, run.JCT.Mean(), run.JCT.Percentile(50), run.JCT.Percentile(90),
			run.MapTime.Mean(), run.ReduceTime.Mean())
	}
	out := tb.String()
	out += fmt.Sprintf("hit JCT improvement: %.0f%% vs capacity (paper: 28%%), %.0f%% vs pna (paper: 11%%)\n",
		r.JCTImprovementVsCapacity*100, r.JCTImprovementVsPNA*100)
	return out
}

// RenderCDF emits the Figure 6(a) CDF series (step points per scheduler).
func (r *Fig6Result) RenderCDF(points int) string {
	tb := metrics.NewTable("Figure 6(a): CDF of job completion times", "scheduler", "JCT", "fraction")
	for _, run := range r.Runs {
		for _, pt := range run.JCT.CDF(points) {
			tb.AddRowf([]string{"%s", "%.1f", "%.2f"}, run.Name, pt.Value, pt.Fraction)
		}
	}
	return tb.String()
}

// Fig7Result presents the route-length and shuffle-delay comparison.
type Fig7Result struct {
	Runs []*SchedulerRun
	// HopsImprovement and DelayImprovement compare hit vs capacity
	// (paper: 6.5 -> 4.4 hops = ~30%; 189 -> 131 us = ~32%).
	HopsImprovement  float64
	DelayImprovement float64
}

// Fig7FromFig6 reuses already-collected Figure 6 runs.
func Fig7FromFig6(f6 *Fig6Result) *Fig7Result {
	res := &Fig7Result{Runs: f6.Runs}
	capRun := f6.Run("capacity")
	hitRun := f6.Run("hit")
	if capRun != nil && hitRun != nil {
		res.HopsImprovement = metrics.Improvement(capRun.AvgRouteHops, hitRun.AvgRouteHops)
		res.DelayImprovement = metrics.Improvement(capRun.AvgShuffleDelayT, hitRun.AvgShuffleDelayT)
	}
	return res
}

// Render formats Figure 7.
func (r *Fig7Result) Render() string {
	tb := metrics.NewTable("Figure 7: shuffle traffic flow",
		"scheduler", "avg route (hops)", "avg shuffle delay (T)", "avg transfer time")
	for _, run := range r.Runs {
		tb.AddRowf([]string{"%s", "%.2f", "%.2f", "%.2f"},
			run.Name, run.AvgRouteHops, run.AvgShuffleDelayT, run.AvgTransferTime)
	}
	out := tb.String()
	out += fmt.Sprintf("hit vs capacity: route length -%.0f%% (paper: ~30%%), shuffle delay -%.0f%% (paper: ~32%%)\n",
		r.HopsImprovement*100, r.DelayImprovement*100)
	return out
}

// ---------------------------------------------------------------------------
// Figure 8(a): shuffle-cost reduction by job class
// ---------------------------------------------------------------------------

// Fig8aRow is one class's cost reduction for one scheduler.
type Fig8aRow struct {
	Class         workload.Class
	Scheduler     string
	CostReduction float64 // vs capacity
}

// Fig8aResult carries all rows.
type Fig8aResult struct {
	Rows []Fig8aRow
}

// Figure8a runs a single job of each class (averaged over repeats) on the
// testbed tree and reports the shuffle-cost reduction of Hit and PNA versus
// Capacity. The paper reports ~38% (hit) and ~21% (pna) for shuffle-heavy,
// with smaller gains for medium/light.
func Figure8a(cfg Config) (*Fig8aResult, error) {
	cfg = cfg.withDefaults()
	res := &Fig8aResult{}
	for _, class := range workload.Classes() {
		class := class
		cells, err := runCells(SchedulerNames(), cfg.Repeats, func(name string, rep int) (*topology.Topology, []*workload.Job, int64, error) {
			seed := cfg.Seed + int64(rep)*577 + int64(class)
			g, err := jobGen(cfg, seed)
			if err != nil {
				return nil, nil, 0, err
			}
			job, err := g.SampleClass(class)
			if err != nil {
				return nil, nil, 0, err
			}
			topo, err := testbedTopology(1)
			if err != nil {
				return nil, nil, 0, err
			}
			return topo, []*workload.Job{job}, seed, nil
		})
		if err != nil {
			return nil, err
		}
		costs := map[string]float64{}
		for si, name := range SchedulerNames() {
			for _, r := range cells[si] {
				costs[name] += r.TotalTrafficCost
			}
		}
		for _, name := range []string{"pna", "hit"} {
			res.Rows = append(res.Rows, Fig8aRow{
				Class:         class,
				Scheduler:     name,
				CostReduction: metrics.Improvement(costs["capacity"], costs[name]),
			})
		}
	}
	return res, nil
}

// Render formats Figure 8(a).
func (r *Fig8aResult) Render() string {
	tb := metrics.NewTable("Figure 8(a): shuffle cost reduction vs capacity, by job type",
		"class", "scheduler", "cost reduction (%)")
	for _, row := range r.Rows {
		tb.AddRowf([]string{"%s", "%s", "%.1f"},
			row.Class.String(), row.Scheduler, row.CostReduction*100)
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Figure 8(b): shuffle cost across network architectures
// ---------------------------------------------------------------------------

// Fig8bRow is one (architecture, scheduler) cost cell.
type Fig8bRow struct {
	Architecture string
	Scheduler    string
	ShuffleCost  float64
}

// Fig8bResult carries the architecture sweep.
type Fig8bResult struct {
	Rows []Fig8bRow
}

// Figure8b runs a shuffle-heavy workload across Tree, Fat-Tree, BCube and
// VL2 fabrics of comparable size; the paper reports Hit beating PNA ~19%
// and Capacity ~32% across architectures.
func Figure8b(cfg Config) (*Fig8bResult, error) {
	cfg = cfg.withDefaults()
	nJobs := 4
	minServers := 32
	if cfg.Quick {
		nJobs = 2
		minServers = 16
	}
	res := &Fig8bResult{}
	for _, arch := range topology.ArchitectureNames() {
		arch := arch
		cells, err := runCells(SchedulerNames(), cfg.Repeats, func(name string, rep int) (*topology.Topology, []*workload.Job, int64, error) {
			seed := cfg.Seed + int64(rep)*733
			g, err := jobGen(cfg, seed)
			if err != nil {
				return nil, nil, 0, err
			}
			var jobs []*workload.Job
			for i := 0; i < nJobs; i++ {
				j, err := g.SampleClass(workload.ShuffleHeavy)
				if err != nil {
					return nil, nil, 0, err
				}
				jobs = append(jobs, j)
			}
			topo, err := topology.NewArchitecture(arch, minServers, topology.LinkParams{
				Bandwidth: 1, SwitchCapacity: 48,
			})
			if err != nil {
				return nil, nil, 0, err
			}
			return topo, jobs, seed, nil
		})
		if err != nil {
			return nil, err
		}
		costs := map[string]float64{}
		for si, name := range SchedulerNames() {
			for _, r := range cells[si] {
				costs[name] += r.TotalTrafficCost
			}
		}
		for _, name := range SchedulerNames() {
			res.Rows = append(res.Rows, Fig8bRow{
				Architecture: arch, Scheduler: name, ShuffleCost: costs[name] / float64(cfg.Repeats),
			})
		}
	}
	return res, nil
}

// Cost returns the stored cost for (arch, scheduler), or -1.
func (r *Fig8bResult) Cost(arch, sched string) float64 {
	for _, row := range r.Rows {
		if row.Architecture == arch && row.Scheduler == sched {
			return row.ShuffleCost
		}
	}
	return -1
}

// Render formats Figure 8(b).
func (r *Fig8bResult) Render() string {
	tb := metrics.NewTable("Figure 8(b): shuffle cost by network architecture",
		"architecture", "scheduler", "shuffle cost")
	for _, row := range r.Rows {
		tb.AddRowf([]string{"%s", "%s", "%.1f"}, row.Architecture, row.Scheduler, row.ShuffleCost)
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Figure 9: bandwidth sensitivity on a 512-node tree
// ---------------------------------------------------------------------------

// Fig9Row is one bandwidth point.
type Fig9Row struct {
	BandwidthMbps float64
	// ThroughputImprovement vs capacity per scheduler.
	HitImprovement float64
	PNAImprovement float64
}

// Fig9Result carries the sweep.
type Fig9Result struct {
	Rows []Fig9Row
}

// Figure9 sweeps the link bandwidth on a 512-server tree (depth 3, fanout
// 8) and reports shuffle-throughput improvement of Hit and PNA over
// Capacity. The paper sweeps 0.1–60 Mbps and sees Hit's edge grow as
// bandwidth shrinks (up to ~48% at 0.1 Mbps).
func Figure9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	bandwidths := []float64{0.1, 1, 10, 30, 60}
	nJobs := 6
	fanout := 8 // 8^3 = 512 servers
	if cfg.Quick {
		bandwidths = []float64{0.1, 10}
		nJobs = 2
		fanout = 4 // 64 servers
	}
	res := &Fig9Result{}
	for _, bw := range bandwidths {
		bw := bw
		cells, err := runCells(SchedulerNames(), cfg.Repeats, func(name string, rep int) (*topology.Topology, []*workload.Job, int64, error) {
			seed := cfg.Seed + int64(rep)*389
			g, err := jobGen(cfg, seed)
			if err != nil {
				return nil, nil, 0, err
			}
			var jobs []*workload.Job
			for i := 0; i < nJobs; i++ {
				j, err := g.SampleClass(workload.ShuffleHeavy)
				if err != nil {
					return nil, nil, 0, err
				}
				jobs = append(jobs, j)
			}
			// Bandwidth in "Mbps" maps to link capacity units directly; the
			// comparison is relative so only the ratio to demand matters.
			// Switch processing capacity stays absolute — Figure 9 varies
			// link bandwidth, not switch fabric speed.
			topo, err := topology.NewTree(3, fanout, topology.LinkParams{
				Bandwidth:        bw / 10,
				SwitchCapacity:   48,
				Oversubscription: 4,
			})
			if err != nil {
				return nil, nil, 0, err
			}
			return topo, jobs, seed, nil
		})
		if err != nil {
			return nil, err
		}
		tput := map[string]float64{}
		for si, name := range SchedulerNames() {
			for _, r := range cells[si] {
				tput[name] += r.ShuffleThroughput
			}
		}
		res.Rows = append(res.Rows, Fig9Row{
			BandwidthMbps:  bw,
			HitImprovement: relGain(tput["hit"], tput["capacity"]),
			PNAImprovement: relGain(tput["pna"], tput["capacity"]),
		})
	}
	return res, nil
}

// relGain returns (x - base) / base, or 0 when base is 0.
func relGain(x, base float64) float64 {
	if base == 0 { //taalint:floateq exact-zero division guard: a zero baseline means "absent", not "tiny"

		return 0
	}
	return (x - base) / base
}

// Render formats Figure 9.
func (r *Fig9Result) Render() string {
	tb := metrics.NewTable("Figure 9: throughput improvement vs capacity under varying bandwidth",
		"bandwidth (Mbps)", "hit (%)", "pna (%)")
	for _, row := range r.Rows {
		tb.AddRowf([]string{"%.1f", "%.1f", "%.1f"},
			row.BandwidthMbps, row.HitImprovement*100, row.PNAImprovement*100)
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Figure 10: sensitivity to job count
// ---------------------------------------------------------------------------

// Fig10Row is one job-count point.
type Fig10Row struct {
	Jobs             int
	HitCostReduction float64
	PNACostReduction float64
}

// Fig10Result carries the sweep.
type Fig10Result struct {
	Rows []Fig10Row
}

// Figure10 sweeps the number of concurrent jobs (3–18 in the paper) and
// reports the shuffle-cost reduction versus Capacity. The paper runs this
// sweep on the large-scale simulation (512 nodes), where compute slots stay
// plentiful and the growing job count pressures the NETWORK: beyond ~12
// jobs the switch-capacity constraints force the topology-unaware baseline
// onto ever longer detours while Hit keeps flows local — the paper's
// rising-then-plateauing shape.
func Figure10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	jobCounts := []int{3, 6, 9, 12, 15, 18}
	fanout := 8 // 512 servers
	if cfg.Quick {
		jobCounts = []int{3, 6}
		fanout = 4
	}
	res := &Fig10Result{}
	for _, n := range jobCounts {
		n := n
		cells, err := runCells(SchedulerNames(), cfg.Repeats, func(name string, rep int) (*topology.Topology, []*workload.Job, int64, error) {
			seed := cfg.Seed + int64(rep)*211
			wcfg := workload.DefaultConfig()
			wcfg.MinInputGB, wcfg.MaxInputGB, wcfg.MaxMaps = 2, 8, 8
			g, err := workload.NewGenerator(wcfg, seed)
			if err != nil {
				return nil, nil, 0, err
			}
			topo, err := topology.NewTree(3, fanout, topology.LinkParams{
				Bandwidth:        1,
				SwitchCapacity:   24,
				Oversubscription: 4,
			})
			if err != nil {
				return nil, nil, 0, err
			}
			return topo, g.Workload(n), seed, nil
		})
		if err != nil {
			return nil, err
		}
		costs := map[string]float64{}
		for si, name := range SchedulerNames() {
			for _, r := range cells[si] {
				costs[name] += r.TotalTrafficCost
			}
		}
		res.Rows = append(res.Rows, Fig10Row{
			Jobs:             n,
			HitCostReduction: metrics.Improvement(costs["capacity"], costs["hit"]),
			PNACostReduction: metrics.Improvement(costs["capacity"], costs["pna"]),
		})
	}
	return res, nil
}

// Render formats Figure 10.
func (r *Fig10Result) Render() string {
	tb := metrics.NewTable("Figure 10: shuffle cost reduction vs job count",
		"jobs", "hit (%)", "pna (%)")
	for _, row := range r.Rows {
		tb.AddRowf([]string{"%d", "%.1f", "%.1f"},
			row.Jobs, row.HitCostReduction*100, row.PNACostReduction*100)
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Ablation: the design choices DESIGN.md calls out
// ---------------------------------------------------------------------------

// AblationRow is one variant's aggregate cost.
type AblationRow struct {
	Variant     string
	ShuffleCost float64
	JCTMean     float64
}

// AblationResult compares full Hit against its ablated variants.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs full Hit, Hit without policy optimization, Hit without
// stable matching, and Random on the same workload.
func Ablation(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	nJobs := 6
	if cfg.Quick {
		nJobs = 3
	}
	variants := []string{"hit", "hit-nopolicy", "hit-nomatching", "random"}
	res := &AblationResult{}
	for _, name := range variants {
		var cost, jct float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			seed := cfg.Seed + int64(rep)*499
			g, err := jobGen(cfg, seed)
			if err != nil {
				return nil, err
			}
			jobs := g.Workload(nJobs)
			topo, err := testbedTopology(1)
			if err != nil {
				return nil, err
			}
			r, err := runOnce(topo, name, jobs, seed)
			if err != nil {
				return nil, err
			}
			cost += r.TotalTrafficCost
			jct += r.JCT.Mean()
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:     name,
			ShuffleCost: cost / float64(cfg.Repeats),
			JCTMean:     jct / float64(cfg.Repeats),
		})
	}
	return res, nil
}

// Render formats the ablation table.
func (r *AblationResult) Render() string {
	tb := metrics.NewTable("Ablation: Hit-Scheduler design choices",
		"variant", "shuffle cost", "JCT mean")
	for _, row := range r.Rows {
		tb.AddRowf([]string{"%s", "%.1f", "%.1f"}, row.Variant, row.ShuffleCost, row.JCTMean)
	}
	return tb.String()
}
