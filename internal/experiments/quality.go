package experiments

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/scheduler"
	"repro/internal/taasearch"
	"repro/internal/workload"
)

// QualityRow is one instance size's comparison.
type QualityRow struct {
	Tasks      int
	HitCost    float64
	AnnealCost float64
	GapPct     float64
}

// QualityResult quantifies the optimality gap of Hit-Scheduler's
// stable-matching heuristic versus a long simulated-annealing search over
// the same TAA instances — an extension answering "how close to optimal is
// the paper's O(M×N) algorithm?"
type QualityResult struct {
	Rows []QualityRow
}

// QualityGap runs both solvers over growing instance sizes on the testbed
// tree and reports the relative cost gap.
func QualityGap(cfg Config) (*QualityResult, error) {
	cfg = cfg.withDefaults()
	sizes := [][2]int{{4, 2}, {8, 4}, {16, 8}}
	iters := 30000
	if cfg.Quick {
		sizes = [][2]int{{4, 2}, {8, 4}}
		iters = 8000
	}
	res := &QualityResult{}
	for _, size := range sizes {
		maps, reduces := size[0], size[1]
		type cellOut struct{ hit, ann float64 }
		cells, err := parallel.Map(cfg.Repeats, func(rep int) (cellOut, error) {
			seed := cfg.Seed + int64(rep)*631
			runCost := func(s scheduler.Scheduler) (float64, error) {
				topo, err := testbedTopology(1)
				if err != nil {
					return 0, err
				}
				cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
				if err != nil {
					return 0, err
				}
				ctl := controller.New(topo)
				g, err := jobGen(cfg, seed)
				if err != nil {
					return 0, err
				}
				job, err := g.SampleClass(workload.ShuffleHeavy)
				if err != nil {
					return 0, err
				}
				// Resize the sampled job to the target task counts while
				// keeping its byte volume.
				resized := &workload.Job{
					Benchmark: job.Benchmark, Class: job.Class,
					InputGB: job.InputGB, NumMaps: maps, NumReduces: reduces,
				}
				cell := job.TotalShuffleGB() / float64(maps*reduces)
				resized.Shuffle = make([][]float64, maps)
				for m := range resized.Shuffle {
					resized.Shuffle[m] = make([]float64, reduces)
					for r := range resized.Shuffle[m] {
						resized.Shuffle[m][r] = cell
					}
				}
				resized.MapComputeSec = make([]float64, maps)
				resized.ReduceComputeSec = make([]float64, reduces)
				req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{resized},
					cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(seed)))
				if err != nil {
					return 0, err
				}
				if err := s.Schedule(req); err != nil {
					return 0, err
				}
				return ctl.TotalCost(req.Flows, req.Locator())
			}
			hit, err := runCost(&core.HitScheduler{})
			if err != nil {
				return cellOut{}, err
			}
			ann, err := runCost(&taasearch.Annealer{Iterations: iters})
			if err != nil {
				return cellOut{}, err
			}
			return cellOut{hit: hit, ann: ann}, nil
		})
		if err != nil {
			return nil, err
		}
		row := QualityRow{Tasks: maps + reduces}
		for _, c := range cells {
			row.HitCost += c.hit
			row.AnnealCost += c.ann
		}
		n := float64(cfg.Repeats)
		row.HitCost /= n
		row.AnnealCost /= n
		if row.AnnealCost > 0 {
			row.GapPct = (row.HitCost - row.AnnealCost) / row.AnnealCost * 100
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the table.
func (r *QualityResult) Render() string {
	tb := metrics.NewTable("Optimality gap: Hit-Scheduler vs simulated annealing (same TAA instances)",
		"tasks", "hit cost", "anneal cost", "gap (%)")
	for _, row := range r.Rows {
		tb.AddRowf([]string{"%d", "%.1f", "%.1f", "%.1f"},
			row.Tasks, row.HitCost, row.AnnealCost, row.GapPct)
	}
	return tb.String()
}

// CSV implements CSVable.
func (r *QualityResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{itoa(row.Tasks), f(row.HitCost), f(row.AnnealCost), f(row.GapPct)})
	}
	return writeCSV([]string{"tasks", "hit_cost", "anneal_cost", "gap_pct"}, rows)
}

func itoa(v int) string { return f(float64(v)) }
