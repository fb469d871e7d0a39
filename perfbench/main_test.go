package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestTailIndex(t *testing.T) {
	for _, c := range []struct {
		n, want int
	}{
		{100, 89},   // p90 with exactly ten samples beyond it
		{99, 88},    // p90 would leave nine beyond: lowered by one rank
		{50, 39},    // lowered to p80
		{1000, 899}, // p90 with a hundred beyond
		{15, 7},     // no percentile has ten beyond: the median
		{1, 0},
	} {
		got := tailIndex(c.n, 90)
		if got != c.want {
			t.Errorf("tailIndex(%d, 90) = %d, want %d", c.n, got, c.want)
		}
		if c.n > 20 && c.n-1-got < 10 {
			t.Errorf("tailIndex(%d, 90) leaves %d samples beyond it", c.n, c.n-1-got)
		}
	}
	v := make([]float64, 99)
	for i := range v {
		v[i] = float64(99 - i)
	}
	q := summarize(v, 90)
	if q.p50 != 50 || q.tail != 89 || q.beyond != 10 || q.tailPct != 90 {
		t.Errorf("summarize of 1..99 = %+v, want p50 50, tail 89 (p90), 10 beyond", q)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1 by 10
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Start: 15, End: 95},  // grandchild: not a child of 0
	}
	// Children cover [10,60] and [90,100]: 60 of the parent's 100.
	if got := selfTime(spans, 0); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(spans, 1); got != 5 {
		t.Errorf("selfTime of a span with a child past its end = %d, want 5", got)
	}
}

func TestFailedRatioCountsEveryAttempt(t *testing.T) {
	var tl tally
	if tl.failedRatio() != 0 {
		t.Fatal("empty tally must report 0")
	}
	for i := 0; i < 3; i++ {
		tl.record(nil)
	}
	tl.record(errors.New("check failed"))
	if tl.attempted != 4 || tl.failed != 1 || tl.failedRatio() != 0.25 {
		t.Errorf("tally %+v ratio %v, want 1 failed of 4 attempted = 0.25", tl, tl.failedRatio())
	}
}

func TestStratifiedJobsKeepTable1Shares(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names, inputs, err := stratifiedJobs(rng, workload.Catalog(), 80, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int)
	for _, n := range names {
		count[n]++
	}
	for _, b := range workload.Catalog() {
		if want := int(b.Share) * 80 / 100; count[b.Name] != want {
			t.Errorf("%s: %d jobs, want %d", b.Name, count[b.Name], want)
		}
	}
	strata := make([]bool, 80)
	for _, in := range inputs {
		strata[int((in-4)/12*80)] = true
	}
	for i, ok := range strata {
		if !ok {
			t.Errorf("no input in stratum %d", i)
		}
	}
	if _, _, err := stratifiedJobs(rng, workload.Catalog(), 7, 4, 16); err == nil {
		t.Error("a pool that cannot hold the shares exactly must be rejected")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the command must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(what string, json []struct{ Name, Unit string }, code []metricDef) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", what, len(json), len(code))
			return
		}
		for i := range code {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]", what, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the command %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs the command briefly, untraced
// and traced, and compares the metric names and units of its last output
// line with BENCHMARK.json.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the testbed workload twice")
	}
	b := readBenchmarkJSON(t)
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": b.EndToEnd, "1": b.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "testbed-fig6", "--seed", "3", "--seconds", "0.05", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: result %+v", trace, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: printed %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s printed as %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "testbed-fig6", "--seconds", "0"},
		{"--workload", "testbed-fig6", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want 2 and no result", args, code, out.String())
		}
	}
}

func TestDeriveSeparatesStreams(t *testing.T) {
	seen := make(map[int64]bool)
	for stream := uint64(1); stream <= 4; stream++ {
		for i := uint64(0); i < 64; i++ {
			s := derive(42, stream, i)
			if s < 0 || seen[s] {
				t.Fatalf("derive(42, %d, %d) = %d repeats or is negative", stream, i, s)
			}
			seen[s] = true
		}
	}
	if derive(1, streamJobs, 0) == derive(2, streamJobs, 0) {
		t.Error("different workload seeds gave the same op seed")
	}
}
