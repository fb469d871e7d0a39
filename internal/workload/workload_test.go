package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 11 {
		t.Fatalf("catalog has %d entries, want 11 (Table 1)", len(cat))
	}
	var total float64
	shares := make(map[Class]float64)
	for _, b := range cat {
		total += b.Share
		shares[b.Class] += b.Share
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", total)
	}
	if shares[ShuffleHeavy] != 40 {
		t.Errorf("heavy share = %v, want 40 (5+10+10+10+5)", shares[ShuffleHeavy])
	}
	if shares[ShuffleMedium] != 20 {
		t.Errorf("medium share = %v, want 20", shares[ShuffleMedium])
	}
	if shares[ShuffleLight] != 40 {
		t.Errorf("light share = %v, want 40 (15+10+5+10)", shares[ShuffleLight])
	}
	// Class ordering of shuffle ratios: every heavy > every medium > every light.
	for _, h := range CatalogByClass(ShuffleHeavy) {
		for _, m := range CatalogByClass(ShuffleMedium) {
			if h.ShuffleRatio <= m.ShuffleRatio {
				t.Errorf("heavy %s ratio %v <= medium %s ratio %v", h.Name, h.ShuffleRatio, m.Name, m.ShuffleRatio)
			}
		}
	}
	for _, m := range CatalogByClass(ShuffleMedium) {
		for _, l := range CatalogByClass(ShuffleLight) {
			if m.ShuffleRatio <= l.ShuffleRatio {
				t.Errorf("medium %s ratio %v <= light %s ratio %v", m.Name, m.ShuffleRatio, l.Name, l.ShuffleRatio)
			}
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	b, err := BenchmarkByName("terasort")
	if err != nil {
		t.Fatal(err)
	}
	if b.Class != ShuffleHeavy {
		t.Errorf("terasort class = %v", b.Class)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestClassString(t *testing.T) {
	if ShuffleHeavy.String() != "shuffle-heavy" ||
		ShuffleMedium.String() != "shuffle-medium" ||
		ShuffleLight.String() != "shuffle-light" {
		t.Error("class strings wrong")
	}
	if Class(42).String() == "" {
		t.Error("unknown class string empty")
	}
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Error("task kind strings wrong")
	}
	if len(Classes()) != 3 {
		t.Error("Classes() wrong length")
	}
}

func TestGeneratorJobShuffleConservation(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	j, err := g.Job("terasort", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// terasort shuffles ~100% of input.
	if got := j.TotalShuffleGB(); math.Abs(got-10) > 1e-6 {
		t.Errorf("total shuffle = %v GB, want 10", got)
	}
	// Row/column marginals are consistent.
	var rowSum, colSum float64
	for m := 0; m < j.NumMaps; m++ {
		rowSum += j.MapOutputGB(m)
	}
	for r := 0; r < j.NumReduces; r++ {
		colSum += j.ReduceInputGB(r)
	}
	if math.Abs(rowSum-colSum) > 1e-6 {
		t.Errorf("row sum %v != col sum %v", rowSum, colSum)
	}
	// 10 GB / 0.25 GB split = 40 maps, 20 reduces at 0.5 ratio.
	if j.NumMaps != 40 || j.NumReduces != 20 {
		t.Errorf("tasks = %d maps/%d reduces, want 40/20", j.NumMaps, j.NumReduces)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, _ := NewGenerator(DefaultConfig(), 7)
	g2, _ := NewGenerator(DefaultConfig(), 7)
	a := g1.Workload(5)
	b := g2.Workload(5)
	for i := range a {
		if a[i].Benchmark != b[i].Benchmark || a[i].InputGB != b[i].InputGB {
			t.Fatalf("job %d differs: %s/%v vs %s/%v", i, a[i].Benchmark, a[i].InputGB, b[i].Benchmark, b[i].InputGB)
		}
		if a[i].TotalShuffleGB() != b[i].TotalShuffleGB() {
			t.Fatalf("job %d shuffle differs", i)
		}
	}
	g3, _ := NewGenerator(DefaultConfig(), 8)
	c := g3.Workload(5)
	same := true
	for i := range a {
		if a[i].Benchmark != c[i].Benchmark || a[i].InputGB != c[i].InputGB {
			same = false
		}
	}
	if same {
		t.Error("different seeds generated identical workloads")
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(Config{}, 1); err == nil {
		t.Error("zero config accepted")
	}
	bad := DefaultConfig()
	bad.MaxInputGB = bad.MinInputGB - 1
	if _, err := NewGenerator(bad, 1); err == nil {
		t.Error("inverted input range accepted")
	}
	bad = DefaultConfig()
	bad.MaxMaps = 0
	if _, err := NewGenerator(bad, 1); err == nil {
		t.Error("zero MaxMaps accepted")
	}
	g, _ := NewGenerator(DefaultConfig(), 1)
	if _, err := g.Job("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := g.Job("grep", -1); err == nil {
		t.Error("negative input accepted")
	}
}

func TestSampleClassRestriction(t *testing.T) {
	g, _ := NewGenerator(DefaultConfig(), 3)
	for i := 0; i < 50; i++ {
		j, err := g.SampleClass(ShuffleHeavy)
		if err != nil {
			t.Fatal(err)
		}
		if j.Class != ShuffleHeavy {
			t.Fatalf("SampleClass(heavy) produced %v job %s", j.Class, j.Benchmark)
		}
	}
}

func TestWorkloadMixApproximatesTable1(t *testing.T) {
	g, _ := NewGenerator(DefaultConfig(), 99)
	jobs := g.Workload(2000)
	counts := make(map[Class]int)
	for _, j := range jobs {
		counts[j.Class]++
	}
	// Expected: heavy 40%, medium 20%, light 40% within 5 points.
	tol := 0.05 * 2000
	if got, want := float64(counts[ShuffleHeavy]), 0.40*2000; math.Abs(got-want) > tol {
		t.Errorf("heavy count = %v, want ~%v", got, want)
	}
	if got, want := float64(counts[ShuffleMedium]), 0.20*2000; math.Abs(got-want) > tol {
		t.Errorf("medium count = %v, want ~%v", got, want)
	}
	if got, want := float64(counts[ShuffleLight]), 0.40*2000; math.Abs(got-want) > tol {
		t.Errorf("light count = %v, want ~%v", got, want)
	}
}

func TestHeavyJobsShuffleDominates(t *testing.T) {
	// Figure 1's key claim: for shuffle-heavy jobs the shuffle volume is
	// >75% of total traffic (shuffle + remote map) and remote map <20%.
	g, _ := NewGenerator(DefaultConfig(), 4)
	var shuffle, remote float64
	for i := 0; i < 200; i++ {
		j, err := g.SampleClass(ShuffleHeavy)
		if err != nil {
			t.Fatal(err)
		}
		shuffle += j.TotalShuffleGB()
		remote += j.RemoteMapGB
	}
	total := shuffle + remote
	if frac := shuffle / total; frac <= 0.75 {
		t.Errorf("heavy shuffle fraction = %v, want > 0.75", frac)
	}
	if frac := remote / total; frac >= 0.20 {
		t.Errorf("heavy remote-map fraction = %v, want < 0.20", frac)
	}
}

func TestJobValidateErrors(t *testing.T) {
	good := &Job{
		NumMaps: 1, NumReduces: 1,
		Shuffle:       [][]float64{{1}},
		MapComputeSec: []float64{1}, ReduceComputeSec: []float64{1},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good job invalid: %v", err)
	}
	bad := *good
	bad.NumMaps = 0
	if bad.Validate() == nil {
		t.Error("zero maps accepted")
	}
	bad = *good
	bad.Shuffle = [][]float64{{1}, {2}}
	if bad.Validate() == nil {
		t.Error("wrong shuffle rows accepted")
	}
	bad = *good
	bad.Shuffle = [][]float64{{1, 2}}
	if bad.Validate() == nil {
		t.Error("wrong shuffle cols accepted")
	}
	bad = *good
	bad.Shuffle = [][]float64{{-1}}
	if bad.Validate() == nil {
		t.Error("negative shuffle accepted")
	}
	bad = *good
	bad.Shuffle = [][]float64{{math.NaN()}}
	if bad.Validate() == nil {
		t.Error("NaN shuffle accepted")
	}
	bad = *good
	bad.MapComputeSec = nil
	if bad.Validate() == nil {
		t.Error("missing compute vector accepted")
	}
	bad = *good
	bad.InputGB = -1
	if bad.Validate() == nil {
		t.Error("negative input accepted")
	}
	bad = *good
	bad.RemoteMapGB = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN remote map input accepted")
	}
	for _, v := range []float64{-50, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = *good
		bad.MapComputeSec = []float64{v}
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "map compute time 0") {
			t.Errorf("map compute time %v: err = %v, want one naming map 0", v, err)
		}
		bad = *good
		bad.ReduceComputeSec = []float64{v}
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "reduce compute time 0") {
			t.Errorf("reduce compute time %v: err = %v, want one naming reduce 0", v, err)
		}
	}
}

// TestQuickGeneratedJobsAlwaysValid: any benchmark and input size in range
// yields a job that validates, conserves shuffle mass, and has positive
// compute times.
func TestQuickGeneratedJobsAlwaysValid(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog()
	f := func(bi uint8, sizeSeed uint16) bool {
		b := cat[int(bi)%len(cat)]
		input := 1 + float64(sizeSeed%64)
		j, err := g.Job(b.Name, input)
		if err != nil || j.Validate() != nil {
			return false
		}
		if math.Abs(j.TotalShuffleGB()-input*b.ShuffleRatio) > 1e-6 {
			return false
		}
		for _, v := range j.MapComputeSec {
			if v <= 0 {
				return false
			}
		}
		for _, v := range j.ReduceComputeSec {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickJobIDsMonotonic: generator assigns unique increasing IDs.
func TestQuickJobIDsMonotonic(t *testing.T) {
	g, _ := NewGenerator(DefaultConfig(), 13)
	prev := -1
	for i := 0; i < 50; i++ {
		j := g.Sample()
		if j.ID <= prev {
			t.Fatalf("job ID %d not increasing after %d", j.ID, prev)
		}
		prev = j.ID
	}
}

func TestPoissonArrivals(t *testing.T) {
	a, err := PoissonArrivals(200, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 {
		t.Fatalf("len = %d", len(a))
	}
	prev := 0.0
	for i, v := range a {
		if v <= prev {
			t.Fatalf("arrivals not strictly increasing at %d: %v <= %v", i, v, prev)
		}
		prev = v
	}
	// Mean inter-arrival ~ 1/rate = 2 within 25%.
	mean := a[len(a)-1] / float64(len(a))
	if mean < 1.5 || mean > 2.5 {
		t.Errorf("mean gap = %v, want ~2", mean)
	}
	// Determinism.
	b, _ := PoissonArrivals(200, 0.5, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	if _, err := PoissonArrivals(-1, 1, 1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := PoissonArrivals(1, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if got, err := PoissonArrivals(0, 1, 1); err != nil || len(got) != 0 {
		t.Error("empty arrivals broken")
	}
}
