package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sampleTrace builds an n-job trace from g, with Poisson arrivals at the
// given rate (none when rate is 0).
func sampleTrace(t *testing.T, name string, g *Generator, n int, rate float64, seed int64) *Trace {
	t.Helper()
	tr := &Trace{Name: name, Jobs: g.Workload(n)}
	if rate > 0 {
		arr, err := PoissonArrivals(n, rate, seed)
		if err != nil {
			t.Fatal(err)
		}
		tr.Arrivals = arr
	}
	return tr
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := sampleTrace(t, "mix", g, 4, 0.1, 7)
	if len(tr.Jobs) != 4 || len(tr.Arrivals) != 4 {
		t.Fatalf("trace sized %d/%d", len(tr.Jobs), len(tr.Arrivals))
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "mix" || len(got.Jobs) != 4 {
		t.Fatalf("loaded %q with %d jobs", got.Name, len(got.Jobs))
	}
	for i := range tr.Jobs {
		if got.Jobs[i].Benchmark != tr.Jobs[i].Benchmark ||
			got.Jobs[i].TotalShuffleGB() != tr.Jobs[i].TotalShuffleGB() {
			t.Errorf("job %d differs after round trip", i)
		}
		if got.Arrivals[i] != tr.Arrivals[i] {
			t.Errorf("arrival %d differs", i)
		}
	}
	if got.TotalShuffleGB() != tr.TotalShuffleGB() {
		t.Error("total shuffle differs")
	}
}

func TestTraceBatchMode(t *testing.T) {
	g, _ := NewGenerator(DefaultConfig(), 5)
	tr := sampleTrace(t, "batch", g, 3, 0, 1)
	if tr.Arrivals != nil {
		t.Errorf("batch trace has arrivals %v", tr.Arrivals)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTraceValidateErrors(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.Validate() == nil {
		t.Error("nil trace accepted")
	}
	g, _ := NewGenerator(DefaultConfig(), 5)
	tr := sampleTrace(t, "x", g, 2, 0, 1)
	tr.Jobs = append(tr.Jobs, nil)
	if tr.Validate() == nil {
		t.Error("nil job accepted")
	}
	tr = sampleTrace(t, "x", g, 2, 0.5, 1)
	tr.Arrivals = tr.Arrivals[:1]
	if tr.Validate() == nil {
		t.Error("short arrivals accepted")
	}
	tr = sampleTrace(t, "x", g, 2, 0.5, 1)
	tr.Arrivals[0], tr.Arrivals[1] = tr.Arrivals[1], tr.Arrivals[0]
	if tr.Validate() == nil {
		t.Error("unsorted arrivals accepted")
	}
	for _, a := range []float64{-1, math.NaN(), math.Inf(1)} {
		tr = sampleTrace(t, "x", g, 1, 0.5, 1)
		tr.Arrivals[0] = a
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "arrival 0") {
			t.Errorf("arrival %v: err = %v, want one naming arrival 0", a, err)
		}
	}
	bad := &Trace{Jobs: []*Job{{NumMaps: 0, NumReduces: 1}}}
	if bad.Validate() == nil {
		t.Error("invalid job accepted")
	}
	if err := bad.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save accepted invalid trace")
	}
}

func TestLoadTraceErrors(t *testing.T) {
	if _, err := LoadTrace(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadTrace(strings.NewReader(`{"jobs":[{"NumMaps":0}]}`)); err == nil {
		t.Error("invalid job accepted")
	}
	// A hand-written trace that is well-formed except for one negative
	// compute time: hitsim -trace must refuse it rather than run it.
	negative := `{"name": "hand", "jobs": [{"ID": 7, "NumMaps": 2, "NumReduces": 1,
		"Shuffle": [[1], [1]], "MapComputeSec": [3, -50], "ReduceComputeSec": [2]}]}`
	_, err := LoadTrace(strings.NewReader(negative))
	if err == nil || !strings.Contains(err.Error(), "job 7 map compute time 1") {
		t.Errorf("negative compute time: err = %v, want one naming job 7, map 1", err)
	}
}
