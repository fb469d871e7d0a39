package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

func TestTable1(t *testing.T) {
	r := Table1()
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(r.Rows))
	}
	out := r.Render()
	for _, name := range []string{"terasort", "grep", "inverted-index"} {
		if !strings.Contains(out, name) {
			t.Errorf("render missing %q", name)
		}
	}
}

func TestFigure1ShapeMatchesPaper(t *testing.T) {
	r, err := Figure1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byClass := map[workload.Class]Fig1Row{}
	for _, row := range r.Rows {
		byClass[row.Class] = row
	}
	// Paper: heavy jobs shuffle > 75% of traffic, remote map < 20%.
	heavy := byClass[workload.ShuffleHeavy]
	if heavy.ShuffleFrac <= 0.75 {
		t.Errorf("heavy shuffle fraction = %v, want > 0.75", heavy.ShuffleFrac)
	}
	if heavy.RemoteMapFrac >= 0.20 {
		t.Errorf("heavy remote-map fraction = %v, want < 0.20", heavy.RemoteMapFrac)
	}
	// Ordering: heavy > medium > light shuffle fractions.
	if !(heavy.ShuffleFrac > byClass[workload.ShuffleMedium].ShuffleFrac &&
		byClass[workload.ShuffleMedium].ShuffleFrac > byClass[workload.ShuffleLight].ShuffleFrac) {
		t.Errorf("shuffle fraction ordering violated: %+v", r.Rows)
	}
	if !strings.Contains(r.Render(), "shuffle-heavy") {
		t.Error("render missing class names")
	}
}

func TestFigure3ReproducesCaseStudy(t *testing.T) {
	r, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if r.CapacityDelayGBT != 112 {
		t.Errorf("capacity delay = %v GB·T, want 112 (paper)", r.CapacityDelayGBT)
	}
	if r.HitDelayGBT != 64 {
		t.Errorf("hit delay = %v GB·T, want 64 (paper)", r.HitDelayGBT)
	}
	if r.ImprovementPct < 40 || r.ImprovementPct > 45 {
		t.Errorf("improvement = %v%%, want ~42%%", r.ImprovementPct)
	}
	if !strings.Contains(r.Render(), "112") {
		t.Error("render missing capacity value")
	}
}

func TestFigure6And7Shape(t *testing.T) {
	f6, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Runs) != 3 {
		t.Fatalf("runs = %d", len(f6.Runs))
	}
	hit := f6.Run("hit")
	capc := f6.Run("capacity")
	if hit == nil || capc == nil || f6.Run("nope") != nil {
		t.Fatal("Run lookup broken")
	}
	// Shape: traffic cost is the robust discriminator at quick sizes; JCT
	// carries a large compute component, so allow slight noise there.
	if hit.TotalTrafficCost >= capc.TotalTrafficCost {
		t.Errorf("hit cost %v >= capacity %v", hit.TotalTrafficCost, capc.TotalTrafficCost)
	}
	if hit.JCT.Mean() > capc.JCT.Mean()*1.05 {
		t.Errorf("hit JCT %v materially above capacity %v", hit.JCT.Mean(), capc.JCT.Mean())
	}
	f7 := Fig7FromFig6(f6)
	if hit.AvgRouteHops > capc.AvgRouteHops {
		t.Errorf("hit hops %v > capacity %v", hit.AvgRouteHops, capc.AvgRouteHops)
	}
	if f7.HopsImprovement <= 0 || f7.DelayImprovement <= 0 {
		t.Errorf("fig7 improvements not positive: hops %v delay %v", f7.HopsImprovement, f7.DelayImprovement)
	}
	if !strings.Contains(f6.Render(), "hit") || !strings.Contains(f7.Render(), "hops") {
		t.Error("render output incomplete")
	}
	if !strings.Contains(f6.RenderCDF(5), "fraction") {
		t.Error("CDF render incomplete")
	}
}

func TestFigure8aShape(t *testing.T) {
	r, err := Figure8a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 classes x 2 schedulers)", len(r.Rows))
	}
	reduction := func(class workload.Class, sched string) float64 {
		for _, row := range r.Rows {
			if row.Class == class && row.Scheduler == sched {
				return row.CostReduction
			}
		}
		t.Fatalf("no row for %v/%s", class, sched)
		return 0
	}
	// Shape: hit's reduction on heavy workloads is positive and at least
	// matches pna's.
	hitHeavy := reduction(workload.ShuffleHeavy, "hit")
	pnaHeavy := reduction(workload.ShuffleHeavy, "pna")
	if hitHeavy <= 0 {
		t.Errorf("hit heavy reduction = %v, want > 0", hitHeavy)
	}
	if hitHeavy < pnaHeavy {
		t.Errorf("hit heavy reduction %v < pna %v", hitHeavy, pnaHeavy)
	}
	// Heavy gains meet or beat light gains for hit.
	if hitLight := reduction(workload.ShuffleLight, "hit"); hitHeavy < hitLight-0.05 {
		t.Errorf("heavy reduction %v materially below light %v", hitHeavy, hitLight)
	}
	if !strings.Contains(r.Render(), "shuffle-heavy") {
		t.Error("render incomplete")
	}
}

func TestFigure8bShape(t *testing.T) {
	r, err := Figure8b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (4 archs x 3 schedulers)", len(r.Rows))
	}
	for _, arch := range []string{"tree", "fattree", "bcube", "vl2"} {
		hit := r.Cost(arch, "hit")
		capc := r.Cost(arch, "capacity")
		if hit < 0 || capc < 0 {
			t.Fatalf("%s: missing cells", arch)
		}
		if hit > capc {
			t.Errorf("%s: hit cost %v > capacity %v", arch, hit, capc)
		}
	}
	if r.Cost("nope", "hit") != -1 {
		t.Error("unknown arch lookup should be -1")
	}
	if !strings.Contains(r.Render(), "fattree") {
		t.Error("render incomplete")
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d (quick)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.HitImprovement < 0 {
			t.Errorf("bw %v: hit throughput improvement %v < 0", row.BandwidthMbps, row.HitImprovement)
		}
		if row.HitImprovement < row.PNAImprovement-0.05 {
			t.Errorf("bw %v: hit %v materially below pna %v", row.BandwidthMbps, row.HitImprovement, row.PNAImprovement)
		}
	}
	if !strings.Contains(r.Render(), "Mbps") {
		t.Error("render incomplete")
	}
}

func TestFigure10Shape(t *testing.T) {
	r, err := Figure10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d (quick)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.HitCostReduction <= 0 {
			t.Errorf("jobs %d: hit reduction %v, want > 0", row.Jobs, row.HitCostReduction)
		}
		if row.HitCostReduction < row.PNACostReduction-0.05 {
			t.Errorf("jobs %d: hit %v materially below pna %v", row.Jobs, row.HitCostReduction, row.PNACostReduction)
		}
	}
	if !strings.Contains(r.Render(), "jobs") {
		t.Error("render incomplete")
	}
}

func TestAblationShape(t *testing.T) {
	r, err := Ablation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	costs := map[string]float64{}
	for _, row := range r.Rows {
		costs[row.Variant] = row.ShuffleCost
	}
	if costs["hit"] > costs["random"] {
		t.Errorf("full hit %v worse than random %v", costs["hit"], costs["random"])
	}
	if costs["hit"] > costs["hit-nopolicy"]+1e-9 {
		t.Errorf("full hit %v worse than no-policy ablation %v", costs["hit"], costs["hit-nopolicy"])
	}
	if !strings.Contains(r.Render(), "hit-nomatching") {
		t.Error("render incomplete")
	}
}

func TestNewSchedulerUnknown(t *testing.T) {
	if _, err := newScheduler("bogus"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	for _, n := range append(SchedulerNames(), "random", "hit-nopolicy", "hit-nomatching") {
		if _, err := newScheduler(n); err != nil {
			t.Errorf("newScheduler(%q): %v", n, err)
		}
	}
}

func TestFigure7PacketShape(t *testing.T) {
	r, err := Figure7Packet(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var capDelay, hitDelay float64
	for _, row := range r.Rows {
		if row.AvgDelayT <= 0 || row.P99DelayT < row.AvgDelayT {
			t.Errorf("%s: bad delays %v/%v", row.Scheduler, row.AvgDelayT, row.P99DelayT)
		}
		switch row.Scheduler {
		case "capacity":
			capDelay = row.AvgDelayT
		case "hit":
			hitDelay = row.AvgDelayT
		}
	}
	if hitDelay >= capDelay {
		t.Errorf("hit packet delay %v >= capacity %v", hitDelay, capDelay)
	}
	if r.DelayImprovement <= 0 {
		t.Errorf("delay improvement = %v", r.DelayImprovement)
	}
	if !strings.Contains(r.Render(), "p99") {
		t.Error("render incomplete")
	}
}

func TestFailureRecoveryShape(t *testing.T) {
	r, err := FailureRecovery(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.OverloadedAfterFailure < 1 {
		t.Errorf("degradation produced %d overloaded switches, want >= 1", r.OverloadedAfterFailure)
	}
	if r.FlowsRerouted < 1 {
		t.Errorf("rerouted %d flows, want >= 1", r.FlowsRerouted)
	}
	if r.OverloadedAfterRecovery != 0 {
		t.Errorf("%d switches still overloaded after recovery", r.OverloadedAfterRecovery)
	}
	if r.CostAfter < r.CostBefore {
		t.Errorf("cost decreased after degradation: %v -> %v", r.CostBefore, r.CostAfter)
	}
	if !strings.Contains(r.Render(), "rerouted") {
		t.Error("render incomplete")
	}
}

func TestFailureSweepShape(t *testing.T) {
	r, err := FailureSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("quick sweep has %d rows, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BaselineJCT <= 0 || row.FaultyJCT <= 0 {
			t.Errorf("rate %g sev %g: non-positive JCT (base %v, faulty %v)",
				row.Rate, row.Severity, row.BaselineJCT, row.FaultyJCT)
		}
		if row.Inflation < 1 {
			t.Errorf("rate %g sev %g: faults sped the workload up (inflation %v)",
				row.Rate, row.Severity, row.Inflation)
		}
		if row.RecoveryLatency < 0 {
			t.Errorf("rate %g sev %g: negative recovery latency %v",
				row.Rate, row.Severity, row.RecoveryLatency)
		}
	}
	// The sweep is seeded end to end: rerunning it reproduces every cell.
	again, err := FailureSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.CSV() != again.CSV() {
		t.Error("fault sweep is not reproducible across reruns")
	}
	if !strings.Contains(r.Render(), "inflation") {
		t.Error("render incomplete")
	}
}

func TestBaselinesOrdering(t *testing.T) {
	r, err := Baselines(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	hit := r.Cost("hit")
	capc := r.Cost("capacity")
	rnd := r.Cost("random")
	cam := r.Cost("cam")
	if hit < 0 || capc < 0 || rnd < 0 || cam < 0 {
		t.Fatal("missing rows")
	}
	if hit > capc {
		t.Errorf("hit cost %v > capacity %v", hit, capc)
	}
	if hit > cam {
		t.Errorf("hit cost %v > cam %v (hit should win: it also moves maps and policies)", hit, cam)
	}
	if capc > rnd {
		t.Errorf("capacity cost %v > random %v", capc, rnd)
	}
	if r.Cost("nope") != -1 {
		t.Error("unknown scheduler lookup should be -1")
	}
	if !strings.Contains(r.Render(), "cam") {
		t.Error("render incomplete")
	}
}

func TestOnlineShape(t *testing.T) {
	r, err := Online(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	hit := r.JCT("hit")
	capc := r.JCT("capacity")
	if hit <= 0 || capc <= 0 {
		t.Fatalf("missing JCTs: hit=%v capacity=%v", hit, capc)
	}
	if hit > capc*1.05 {
		t.Errorf("hit online JCT %v materially above capacity %v", hit, capc)
	}
	if r.JCT("nope") != -1 {
		t.Error("unknown scheduler lookup should be -1")
	}
	if !strings.Contains(r.Render(), "Poisson") {
		t.Error("render incomplete")
	}
}

func TestCSVEmission(t *testing.T) {
	// Cheap results only; the CSV path is format logic, not simulation.
	t1 := Table1()
	if out := t1.CSV(); !strings.Contains(out, "benchmark,class") || !strings.Contains(out, "terasort") {
		t.Errorf("table1 CSV:\n%s", out)
	}
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if out := f3.CSV(); !strings.Contains(out, "112") {
		t.Errorf("fig3 CSV:\n%s", out)
	}
	f1, err := Figure1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if out := f1.CSV(); strings.Count(out, "\n") != 4 { // header + 3 classes
		t.Errorf("fig1 CSV rows:\n%s", out)
	}
	f6, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if out := f6.CSV(); !strings.Contains(out, "scheduler,jct,fraction") {
		t.Errorf("fig6 CSV header:\n%s", out[:60])
	}
	f7 := Fig7FromFig6(f6)
	if out := f7.CSV(); !strings.Contains(out, "avg_route_hops") {
		t.Error("fig7 CSV header missing")
	}
}

func TestQualityGapShape(t *testing.T) {
	r, err := QualityGap(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.AnnealCost <= 0 || row.HitCost <= 0 {
			t.Errorf("non-positive costs: %+v", row)
		}
		// Hit must be within 80% of the annealing bound at quick sizes.
		if row.GapPct > 80 {
			t.Errorf("tasks %d: gap %v%% too large", row.Tasks, row.GapPct)
		}
	}
	if !strings.Contains(r.Render(), "gap") || !strings.Contains(r.CSV(), "gap_pct") {
		t.Error("render/CSV incomplete")
	}
}
