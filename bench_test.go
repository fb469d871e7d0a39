package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/netstate"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Each benchmark regenerates one table or figure of the paper's evaluation
// and reports its headline quantities as custom benchmark metrics, so
// `go test -bench=.` doubles as the reproduction harness. Benchmarks run the
// Quick experiment configuration per iteration to stay tractable;
// cmd/hitbench runs the full-size versions.

func benchCfg(i int) experiments.Config {
	return experiments.Config{Seed: int64(i + 1), Quick: true, Repeats: 1}
}

// BenchmarkTable1WorkloadMix regenerates Table 1 (benchmark mix) and reports
// the class shares.
func BenchmarkTable1WorkloadMix(b *testing.B) {
	var heavy, medium, light float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		heavy, medium, light = 0, 0, 0
		for _, row := range r.Rows {
			switch row.Class {
			case workload.ShuffleHeavy:
				heavy += row.Share
			case workload.ShuffleMedium:
				medium += row.Share
			case workload.ShuffleLight:
				light += row.Share
			}
		}
	}
	b.ReportMetric(heavy, "heavy-share-%")
	b.ReportMetric(medium, "medium-share-%")
	b.ReportMetric(light, "light-share-%")
}

// BenchmarkFigure1TrafficVolume regenerates Figure 1 (shuffle vs remote-map
// traffic). Paper: shuffle >75% of heavy jobs' traffic, remote map <20%.
func BenchmarkFigure1TrafficVolume(b *testing.B) {
	var heavyShuffleFrac, heavyRemoteFrac float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Class == workload.ShuffleHeavy {
				heavyShuffleFrac = row.ShuffleFrac
				heavyRemoteFrac = row.RemoteMapFrac
			}
		}
	}
	b.ReportMetric(heavyShuffleFrac*100, "heavy-shuffle-%")
	b.ReportMetric(heavyRemoteFrac*100, "heavy-remotemap-%")
}

// BenchmarkFigure3CaseStudy regenerates the §2.3 case study. Paper: 112 GB·T
// (capacity) vs 64 GB·T (topology-aware), ~42% improvement.
func BenchmarkFigure3CaseStudy(b *testing.B) {
	var r *experiments.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CapacityDelayGBT, "capacity-GB·T")
	b.ReportMetric(r.HitDelayGBT, "hit-GB·T")
	b.ReportMetric(r.ImprovementPct, "improvement-%")
}

// BenchmarkFigure6JCTCDF regenerates Figure 6 (CDFs of job completion, map
// and reduce task times). Paper: hit improves JCT 28% vs capacity, 11% vs
// PNA.
func BenchmarkFigure6JCTCDF(b *testing.B) {
	var r *experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure6(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.JCTImprovementVsCapacity*100, "jct-vs-capacity-%")
	b.ReportMetric(r.JCTImprovementVsPNA*100, "jct-vs-pna-%")
	b.ReportMetric(r.Run("hit").JCT.Mean(), "hit-jct-mean")
}

// BenchmarkFigure7RouteAndDelay regenerates Figure 7 (average route length
// and shuffle delay). Paper: 6.5 -> 4.4 hops (~30%), 189 -> 131 us (~32%).
func BenchmarkFigure7RouteAndDelay(b *testing.B) {
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		f6, err := experiments.Figure6(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		r = experiments.Fig7FromFig6(f6)
	}
	b.ReportMetric(r.HopsImprovement*100, "hops-improvement-%")
	b.ReportMetric(r.DelayImprovement*100, "delay-improvement-%")
}

// BenchmarkFigure7PacketDelay regenerates the packet-level (D-ITG style)
// companion of Figure 7(b): per-packet shuffle delay per scheduler.
func BenchmarkFigure7PacketDelay(b *testing.B) {
	var r *experiments.Fig7PacketResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure7Packet(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DelayImprovement*100, "packet-delay-improvement-%")
	for _, row := range r.Rows {
		b.ReportMetric(row.AvgDelayT, row.Scheduler+"-avg-delay")
	}
}

// BenchmarkFigure8aByJobType regenerates Figure 8(a) (cost reduction per job
// class). Paper: heavy 38% (hit) vs 21% (pna); medium/light smaller.
func BenchmarkFigure8aByJobType(b *testing.B) {
	var r *experiments.Fig8aResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure8a(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		switch {
		case row.Class == workload.ShuffleHeavy:
			b.ReportMetric(row.CostReduction*100, row.Scheduler+"-heavy-%")
		case row.Class == workload.ShuffleLight && row.Scheduler == "hit":
			b.ReportMetric(row.CostReduction*100, "hit-light-%")
		}
	}
}

// BenchmarkFigure8bByArchitecture regenerates Figure 8(b) (shuffle cost
// across Tree/Fat-Tree/BCube/VL2). Paper: hit beats pna ~19%, capacity ~32%.
func BenchmarkFigure8bByArchitecture(b *testing.B) {
	var r *experiments.Fig8bResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure8b(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	var vsCap, vsPNA float64
	n := 0.0
	for _, arch := range []string{"tree", "fattree", "bcube", "vl2"} {
		capc := r.Cost(arch, "capacity")
		pna := r.Cost(arch, "pna")
		hit := r.Cost(arch, "hit")
		if capc > 0 && pna > 0 {
			vsCap += (capc - hit) / capc
			vsPNA += (pna - hit) / pna
			n++
		}
	}
	b.ReportMetric(vsCap/n*100, "hit-vs-capacity-%")
	b.ReportMetric(vsPNA/n*100, "hit-vs-pna-%")
}

// BenchmarkFigure9BandwidthSweep regenerates Figure 9 (throughput
// improvement under 0.1–60 Mbps on a big tree). Paper: hit's gain grows as
// bandwidth shrinks, up to ~48%.
func BenchmarkFigure9BandwidthSweep(b *testing.B) {
	var r *experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure9(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Rows[0].HitImprovement*100, "hit-lowbw-%")
	b.ReportMetric(r.Rows[len(r.Rows)-1].HitImprovement*100, "hit-highbw-%")
}

// BenchmarkFigure10JobSweep regenerates Figure 10 (cost reduction vs job
// count 3–18). Paper: hit rises then plateaus past 12 jobs; pna flat ~15%.
func BenchmarkFigure10JobSweep(b *testing.B) {
	var r *experiments.Fig10Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure10(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	first := r.Rows[0]
	last := r.Rows[len(r.Rows)-1]
	b.ReportMetric(first.HitCostReduction*100, "hit-fewjobs-%")
	b.ReportMetric(last.HitCostReduction*100, "hit-manyjobs-%")
	b.ReportMetric(last.PNACostReduction*100, "pna-manyjobs-%")
}

// BenchmarkFailureRecovery benchmarks the failure-injection extension: a
// hot aggregation switch loses half its capacity and the controller
// reroutes the affected flows.
func BenchmarkFailureRecovery(b *testing.B) {
	var r *experiments.FailureResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.FailureRecovery(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.FlowsRerouted), "flows-rerouted")
	b.ReportMetric(float64(r.OverloadedAfterRecovery), "overloaded-after")
	b.ReportMetric((r.CostAfter-r.CostBefore)/r.CostBefore*100, "cost-increase-%")
}

// BenchmarkAblationDesignChoices benchmarks the DESIGN.md ablations: full
// Hit vs no-policy-optimization vs no-stable-matching vs random.
func BenchmarkAblationDesignChoices(b *testing.B) {
	var r *experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Ablation(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.ShuffleCost, row.Variant+"-cost")
	}
}

// BenchmarkQualityGap measures Hit-Scheduler's optimality gap versus
// simulated annealing on identical TAA instances (extension: the paper
// proves NP-hardness but never quantifies its heuristic's distance from
// optimal).
func BenchmarkQualityGap(b *testing.B) {
	var r *experiments.QualityResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.QualityGap(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	b.ReportMetric(last.GapPct, "gap-%")
	b.ReportMetric(last.HitCost, "hit-cost")
	b.ReportMetric(last.AnnealCost, "anneal-cost")
}

// BenchmarkPathOracle measures the netstate oracle's memoized path/distance
// queries against a fresh-BFS baseline (NewUncached), on the two evaluation
// fabrics: the 512-server tree and the k=8 fat-tree. The query mix mirrors
// the schedulers' hot loop: a distance probe, a nearest-candidate scan and a
// path reconstruction per server pair.
func BenchmarkPathOracle(b *testing.B) {
	fabrics := []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"Tree512", func() (*topology.Topology, error) {
			return topology.NewTree(3, 8, topology.LinkParams{Bandwidth: 10, SwitchCapacity: 100})
		}},
		{"FatTree8", func() (*topology.Topology, error) {
			return topology.NewFatTree(8, topology.LinkParams{Bandwidth: 10, SwitchCapacity: 100})
		}},
	}
	for _, f := range fabrics {
		topo, err := f.build()
		if err != nil {
			b.Fatal(err)
		}
		servers := topo.Servers()
		cands := servers[:16]
		run := func(b *testing.B, o *netstate.Oracle) {
			b.Helper()
			for i := 0; i < b.N; i++ {
				src := servers[i%len(servers)]
				dst := servers[(i*31+7)%len(servers)]
				if o.Dist(src, dst) < 0 {
					b.Fatal("disconnected fabric")
				}
				if o.NearestByDist(src, cands) == topology.None {
					b.Fatal("no candidate")
				}
				if src != dst && o.ShortestPath(src, dst) == nil {
					b.Fatal("no path")
				}
			}
		}
		b.Run(f.name+"/cached", func(b *testing.B) { run(b, netstate.New(topo)) })
		b.Run(f.name+"/freshBFS", func(b *testing.B) { run(b, netstate.NewUncached(topo)) })
	}
}
