// Command perfbench is the repository benchmark. It runs one workload in a
// closed loop from a single process — one op in flight, the sequential Hit
// scheduler — checks every op's outputs, and prints the end-to-end metrics;
// with --trace 1 it adds a traced run of the same ops and prints the
// per-layer metrics instead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench --workload testbed-fig6 --seed 1 --seconds 30 --trace 0
//
// README.md describes the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/flow"
	"repro/internal/procstat"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics the command prints; BENCHMARK.json
// lists the same names and units.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"tasks_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"shuffle_cost", "rate-hops"},
	{"jct_mean", "T"},
}

var perLayer = []metricDef{
	{"topology.build_ms", "ms"},
	{"cluster.new_ms", "ms"},
	{"cluster.candidates_us", "us"},
	{"netstate.row_us", "us"},
	{"netstate.rows_per_wave", "count"},
	{"netstate.solve_us", "us"},
	{"netstate.hit_ns", "ns"},
	{"netstate.pair_hit_ratio", "ratio"},
	{"netstate.pair_misses_per_wave", "count"},
	{"netstate.bfs_rows", "count"},
	{"netstate.cache_mb", "MB"},
	{"controller.alg1_us", "us"},
	{"controller.alg1_warm_us", "us"},
	{"controller.full_stage_ratio", "ratio"},
	{"controller.flows_per_wave", "count"},
	{"core.schedule_ms_p50", "ms"},
	{"core.schedule_ms_p90", "ms"},
	{"core.alloc_mb_per_wave", "MB"},
	{"core.gc_per_wave", "count"},
	{"core.tasks_per_wave", "count"},
	{"stablematch.match_ms", "ms"},
	{"stablematch.rounds", "count"},
	{"netsim.fairshare_us", "us"},
	{"netsim.simulate_ms", "ms"},
	{"netsim.transfers_per_wave", "count"},
	{"sim.self_ms", "ms"},
	{"sim.waves_per_op", "count"},
	{"faults.events_per_op", "count"},
	{"faults.rerouted_per_op", "count"},
	{"faults.retries_per_op", "count"},
	{"faults.failed_jobs_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

const (
	setupRuns = 7   // set-ups per run; setup_s is their median
	minOps    = 100 // timed ops at least, so p90 has ten samples beyond it
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the benchmark and prints its result.
// Exit codes: 0 success, 1 a failed op or check, 2 bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: testbed-fig6, rack10k-plan or fattree-faults")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "how long the timed loop measures, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
	spans := fs.String("spans", "", "file the traced run writes its spans to, as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <testbed-fig6|rack10k-plan|fattree-faults> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	r := &runner{wl: wl, seed: *seed, out: stdout, heap: newHeapReader(), guard: make(map[int]opRecord)}
	res, err := r.run(time.Duration(*seconds*float64(time.Second)), *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sample is one timed op, net of the benchmark's own work inside it.
type sample struct {
	pool  int
	ms    float64
	alloc uint64
	tasks int
}

type runner struct {
	wl    benchWorkload
	seed  int64
	out   io.Writer
	heap  *heapReader
	sc    scenario
	seq   int // ops started, the op IDs of spans
	tally tally
	guard map[int]opRecord // first record of each pool op
}

// once runs pool op k and verifies it. Every op counts in the tally, and an
// op whose outputs differ from an earlier run of the same pool op fails.
func (r *runner) once(k int, tr *tracer, layer *layerStats) (sample, error) {
	h := &hooks{tr: tr, layer: layer, heap: r.heap, healthy: r.wl.healthy, flows: make(map[flow.ID]*flow.Flow)}
	if tr != nil {
		tr.op = r.seq
	}
	r.seq++
	// Every op starts from a collected heap, so the garbage of the previous
	// op, its checks or its probes is not collected on this op's clock.
	runtime.GC()
	h.parent = tr.begin("op", -1)
	a0, _ := r.heap.read()
	t0 := time.Now()
	verify, err := r.sc.exec(k, h)
	elapsed := time.Since(t0)
	a1, _ := r.heap.read()
	tr.end(h.parent)
	s := sample{pool: k, ms: ms(elapsed - h.excluded), alloc: a1 - a0 - h.exAlloc, tasks: h.tasks}
	var rec opRecord
	if err == nil {
		rec, err = verify()
	}
	if err == nil {
		err = h.checkErr
	}
	if err == nil {
		err = r.compare(k, rec)
	}
	if err != nil {
		err = fmt.Errorf("op %d (pool %d): %w", r.seq-1, k, err)
		fmt.Fprintf(r.out, "FAILED %v\n", err)
	}
	r.tally.record(err)
	return s, err
}

// compare is the determinism guard: every run of a pool op, untraced or
// traced, must reproduce its shuffle cost and JCTs bit for bit.
func (r *runner) compare(k int, rec opRecord) error {
	prev, ok := r.guard[k]
	if !ok {
		r.guard[k] = rec
		return nil
	}
	if math.Float64bits(prev.cost) != math.Float64bits(rec.cost) ||
		math.Float64bits(prev.jctSum) != math.Float64bits(rec.jctSum) || prev.jobsDone != rec.jobsDone {
		return fmt.Errorf("outputs differ from an earlier run: shuffle cost %v vs %v, JCT sum %v vs %v over %d vs %d jobs",
			rec.cost, prev.cost, rec.jctSum, prev.jctSum, rec.jobsDone, prev.jobsDone)
	}
	return nil
}

func (r *runner) run(d time.Duration, traced bool, spansPath string) (*result, error) {
	fmt.Fprintf(r.out, "perfbench %s: seed %d, %v timed, trace %v, GOMAXPROCS %d, %d CPUs, pool of %d ops\n",
		r.wl.name, r.seed, d, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), r.wl.poolSize)

	// Set-up, several times: input generation, any shared fabric, warm-up.
	setups := make([]float64, setupRuns)
	for i := range setups {
		t0 := time.Now()
		sc, err := r.wl.setup(r.seed, r.wl.poolSize)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.sc = sc
		for _, k := range warmUpOps(sc, r.wl.poolSize) {
			r.once(k, nil, nil)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	// The timed loop: closed, one op in flight, cycling through the pool
	// until the time is up and every pool op has run, then on to minOps ops
	// unless that would take past three times the run length.
	var samples []sample
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= r.wl.poolSize && el >= d && (i >= minOps || el >= 3*d) {
			break
		}
		if s, err := r.once(i%r.wl.poolSize, nil, nil); err == nil {
			samples = append(samples, s)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no op succeeded (%v)", r.tally)
	}
	e2e, complete := r.endToEnd(samples, setups)

	res := &result{Metrics: make(map[string]metricValue)}
	q := summarize(opTimes(samples), 90)
	fmt.Fprintf(r.out, "timed: %d ops in %.1f s after %d set-ups\n", len(samples), time.Since(start).Seconds(), setupRuns)
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "op_ms_p50":
			note = fmt.Sprintf(" (n=%d)", len(samples))
		case "op_ms_p90":
			note = fmt.Sprintf(" (p%d, %d samples beyond)", q.tailPct, q.beyond)
		case "shuffle_cost", "jct_mean":
			note = fmt.Sprintf(" (over the %d pool ops)", r.wl.poolSize)
		}
		fmt.Fprintf(r.out, "%-24s %14.6g %s%s\n", m.name, e2e[m.name], m.unit, note)
	}
	chosen, values := endToEnd, e2e
	if traced {
		layer, err := r.tracedRun(samples, spansPath)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			fmt.Fprintf(r.out, "%-32s %14.6g %s\n", m.name, layer[m.name], m.unit)
		}
		chosen, values = perLayer, layer
	}
	fmt.Fprintf(r.out, "ops_failed_ratio %g (%v)\n", r.tally.failedRatio(), r.tally)

	res.Correct = r.tally.failed == 0 && complete
	for _, m := range chosen {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Attempted, res.Failed = r.tally.attempted, r.tally.failed
	return res, nil
}

func opTimes(samples []sample) []float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = s.ms
	}
	return v
}

// endToEnd derives the end-to-end metrics from the timed ops. complete
// reports whether every pool op has a record, which shuffle_cost and
// jct_mean sum over.
func (r *runner) endToEnd(samples []sample, setups []float64) (map[string]float64, bool) {
	q := summarize(opTimes(samples), 90)
	var totalMs float64
	var tasks int
	var alloc uint64
	for _, s := range samples {
		totalMs += s.ms
		tasks += s.tasks
		alloc += s.alloc
	}
	var cost, jctSum float64
	jobs := 0
	complete := true
	for k := 0; k < r.wl.poolSize; k++ {
		rec, ok := r.guard[k]
		complete = complete && ok
		cost += rec.cost
		jctSum += rec.jctSum
		jobs += rec.jobsDone
	}
	rss, _ := procstat.PeakRSSBytes()
	sort.Float64s(setups)
	m := map[string]float64{
		"op_ms_p50":       q.p50,
		"op_ms_p90":       q.tail,
		"tasks_per_s":     float64(tasks) / (totalMs / 1000),
		"alloc_mb_per_op": float64(alloc) / float64(len(samples)) / 1e6,
		"peak_rss_mb":     float64(rss) / 1e6,
		"setup_s":         setups[nearestRank(len(setups), 50)],
		"shuffle_cost":    cost,
		"jct_mean":        jctSum / float64(max(jobs, 1)),
	}
	return m, complete && jobs > 0
}

// tracedRun runs the first traceOps pool ops once more with tracing on and
// derives the per-layer metrics. Its ops pass through the determinism guard,
// so their shuffle costs and JCTs must equal the untraced runs' bit for bit.
func (r *runner) tracedRun(samples []sample, spansPath string) (map[string]float64, error) {
	tr := newTracer()
	tr.op = -1
	sp := tr.begin("topology.build", -1)
	_, err := r.sc.build()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	layer := &layerStats{}
	poolOf := make(map[int]int)
	n := min(r.wl.traceOps, r.wl.poolSize)
	for k := 0; k < n; k++ {
		poolOf[r.seq] = k
		r.once(k, tr, layer)
	}
	untraced := make(map[int][]float64)
	for _, s := range samples {
		untraced[s.pool] = append(untraced[s.pool], s.ms)
	}
	fmt.Fprintf(r.out, "traced: %d ops, %d Schedule calls, %d spans\n", n, layer.waves, len(tr.spans))
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return layer.metrics(tr, poolOf, untraced), nil
}
