// Package workload models MapReduce jobs the way the paper's evaluation
// consumes them: each job has Map and Reduce task sets, a per-(map,reduce)
// shuffle byte matrix, and a remote-map input component. The built-in
// benchmark catalog reproduces Table 1 of the paper — the Purdue MapReduce
// Benchmark Suite (PUMA) jobs classified as Shuffle-heavy, Shuffle-medium
// and Shuffle-light with their workload-mix percentages — and the generator
// draws statistically similar jobs from it.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Class is the shuffle-intensity class of a benchmark (Table 1).
type Class int

const (
	// ShuffleHeavy jobs move roughly as many bytes through the shuffle as
	// they read as input (terasort, index, join, ...).
	ShuffleHeavy Class = iota
	// ShuffleMedium jobs shuffle a substantial fraction of their input.
	ShuffleMedium
	// ShuffleLight jobs shuffle almost nothing relative to input (grep,
	// histogram, ...).
	ShuffleLight
	numClasses
)

// String returns "shuffle-heavy", "shuffle-medium" or "shuffle-light".
func (c Class) String() string {
	switch c {
	case ShuffleHeavy:
		return "shuffle-heavy"
	case ShuffleMedium:
		return "shuffle-medium"
	case ShuffleLight:
		return "shuffle-light"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists all classes heavy-to-light.
func Classes() []Class { return []Class{ShuffleHeavy, ShuffleMedium, ShuffleLight} }

// Benchmark describes one PUMA benchmark's traffic profile.
type Benchmark struct {
	Name  string
	Class Class
	// Share is the job-mix percentage from Table 1 (sums to 100 across the
	// catalog).
	Share float64
	// ShuffleRatio is shuffle bytes per input byte (intermediate data
	// selectivity).
	ShuffleRatio float64
	// RemoteMapRatio is the fraction of map input fetched across the network
	// (non-local map splits). The paper's Figure 1 shows this is <20% of
	// total traffic even for shuffle-light jobs.
	RemoteMapRatio float64
	// MapSecondsPerGB and ReduceSecondsPerGB model per-task compute time as a
	// function of the bytes each task processes.
	MapSecondsPerGB    float64
	ReduceSecondsPerGB float64
}

// Catalog returns the Table 1 benchmark mix. Shuffle ratios follow the PUMA
// characterization: sort-like jobs shuffle ~100% of input, index-like jobs
// 35–70%, and filter-like jobs only a few percent.
func Catalog() []Benchmark {
	return []Benchmark{
		// Shuffle-heavy: terasort(5%), index(10%), join(10%), sequence-count(10%), adjacency(5%).
		{Name: "terasort", Class: ShuffleHeavy, Share: 5, ShuffleRatio: 1.00, RemoteMapRatio: 0.08, MapSecondsPerGB: 18, ReduceSecondsPerGB: 22},
		{Name: "index", Class: ShuffleHeavy, Share: 10, ShuffleRatio: 0.90, RemoteMapRatio: 0.08, MapSecondsPerGB: 24, ReduceSecondsPerGB: 26},
		{Name: "join", Class: ShuffleHeavy, Share: 10, ShuffleRatio: 0.95, RemoteMapRatio: 0.10, MapSecondsPerGB: 20, ReduceSecondsPerGB: 30},
		{Name: "sequence-count", Class: ShuffleHeavy, Share: 10, ShuffleRatio: 0.85, RemoteMapRatio: 0.07, MapSecondsPerGB: 26, ReduceSecondsPerGB: 24},
		{Name: "adjacency", Class: ShuffleHeavy, Share: 5, ShuffleRatio: 0.80, RemoteMapRatio: 0.09, MapSecondsPerGB: 22, ReduceSecondsPerGB: 28},
		// Shuffle-medium: inverted-index(10%), term-vector(10%).
		{Name: "inverted-index", Class: ShuffleMedium, Share: 10, ShuffleRatio: 0.40, RemoteMapRatio: 0.08, MapSecondsPerGB: 28, ReduceSecondsPerGB: 18},
		{Name: "term-vector", Class: ShuffleMedium, Share: 10, ShuffleRatio: 0.35, RemoteMapRatio: 0.08, MapSecondsPerGB: 30, ReduceSecondsPerGB: 16},
		// Shuffle-light: grep(15%), wordcount(10%), classification(5%), histogram(10%).
		{Name: "grep", Class: ShuffleLight, Share: 15, ShuffleRatio: 0.01, RemoteMapRatio: 0.06, MapSecondsPerGB: 14, ReduceSecondsPerGB: 4},
		{Name: "wordcount", Class: ShuffleLight, Share: 10, ShuffleRatio: 0.06, RemoteMapRatio: 0.06, MapSecondsPerGB: 20, ReduceSecondsPerGB: 6},
		{Name: "classification", Class: ShuffleLight, Share: 5, ShuffleRatio: 0.05, RemoteMapRatio: 0.07, MapSecondsPerGB: 26, ReduceSecondsPerGB: 6},
		{Name: "histogram", Class: ShuffleLight, Share: 10, ShuffleRatio: 0.02, RemoteMapRatio: 0.06, MapSecondsPerGB: 16, ReduceSecondsPerGB: 4},
	}
}

// BenchmarkByName returns the catalog entry with the given name.
func BenchmarkByName(name string) (Benchmark, error) {
	for _, b := range Catalog() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// CatalogByClass returns the catalog entries of one class.
func CatalogByClass(c Class) []Benchmark {
	var out []Benchmark
	for _, b := range Catalog() {
		if b.Class == c {
			out = append(out, b)
		}
	}
	return out
}

// TaskKind discriminates Map from Reduce tasks.
type TaskKind int

const (
	// MapTask reads an input split and produces intermediate data.
	MapTask TaskKind = iota
	// ReduceTask fetches intermediate data from every map and reduces it.
	ReduceTask
)

// String returns "map" or "reduce".
func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// Job is one MapReduce job instance.
type Job struct {
	ID        int
	Benchmark string
	Class     Class
	// InputGB is the total input size.
	InputGB float64
	// NumMaps and NumReduces are the task counts.
	NumMaps    int
	NumReduces int
	// Shuffle[m][r] is the intermediate bytes (GB) map m sends reduce r.
	Shuffle [][]float64
	// RemoteMapGB is the map input fetched across the network (total).
	RemoteMapGB float64
	// MapComputeSec[m] is map m's pure compute time; ReduceComputeSec[r]
	// likewise for reduces (excluding shuffle wait).
	MapComputeSec    []float64
	ReduceComputeSec []float64
}

// TotalShuffleGB returns the job's total intermediate bytes.
func (j *Job) TotalShuffleGB() float64 {
	var sum float64
	for _, row := range j.Shuffle {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// MapOutputGB returns the intermediate bytes produced by map m.
func (j *Job) MapOutputGB(m int) float64 {
	var sum float64
	for _, v := range j.Shuffle[m] {
		sum += v
	}
	return sum
}

// ReduceInputGB returns the intermediate bytes destined for reduce r.
func (j *Job) ReduceInputGB(r int) float64 {
	var sum float64
	for m := range j.Shuffle {
		sum += j.Shuffle[m][r]
	}
	return sum
}

// Validate checks structural consistency.
func (j *Job) Validate() error {
	if j.NumMaps <= 0 || j.NumReduces <= 0 {
		return fmt.Errorf("workload: job %d has %d maps, %d reduces", j.ID, j.NumMaps, j.NumReduces)
	}
	if len(j.Shuffle) != j.NumMaps {
		return fmt.Errorf("workload: job %d shuffle rows = %d, want %d", j.ID, len(j.Shuffle), j.NumMaps)
	}
	for m, row := range j.Shuffle {
		if len(row) != j.NumReduces {
			return fmt.Errorf("workload: job %d shuffle row %d cols = %d, want %d", j.ID, m, len(row), j.NumReduces)
		}
		for r, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("workload: job %d shuffle[%d][%d] = %v", j.ID, m, r, v)
			}
		}
	}
	if len(j.MapComputeSec) != j.NumMaps || len(j.ReduceComputeSec) != j.NumReduces {
		return fmt.Errorf("workload: job %d compute vectors sized %d/%d, want %d/%d",
			j.ID, len(j.MapComputeSec), len(j.ReduceComputeSec), j.NumMaps, j.NumReduces)
	}
	for m, v := range j.MapComputeSec {
		if !finiteNonNegative(v) {
			return fmt.Errorf("workload: job %d map compute time %d = %v", j.ID, m, v)
		}
	}
	for r, v := range j.ReduceComputeSec {
		if !finiteNonNegative(v) {
			return fmt.Errorf("workload: job %d reduce compute time %d = %v", j.ID, r, v)
		}
	}
	if !finiteNonNegative(j.InputGB) || !finiteNonNegative(j.RemoteMapGB) {
		return fmt.Errorf("workload: job %d sizes input %v GB, remote map %v GB", j.ID, j.InputGB, j.RemoteMapGB)
	}
	return nil
}

// finiteNonNegative reports whether v is a usable time or size: not
// negative, not NaN and not infinite.
func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// Config tunes the statistical job generator.
type Config struct {
	// MinInputGB and MaxInputGB bound the per-job input size (uniform draw).
	MinInputGB, MaxInputGB float64
	// MaxMaps caps the map count so simulations stay tractable.
	MaxMaps int
}

// The generator's fixed job shape: 256 MB input splits (NumMaps =
// ceil(InputGB / splitGB)), one reduce per two maps (NumReduces = max(1,
// ceil(NumMaps × reducesPerMap))), reduce partition sizes Zipf-like with
// exponent partitionSkew (0 would be uniform), and a multiplicative
// ±mapNoise jitter on each map's output.
const (
	splitGB       = 0.25
	reducesPerMap = 0.5
	partitionSkew = 0.5
	mapNoise      = 0.2
)

// DefaultConfig returns the generator configuration used by the evaluation:
// jobs of 4–40 GB input and at most 64 maps.
func DefaultConfig() Config {
	return Config{MinInputGB: 4, MaxInputGB: 40, MaxMaps: 64}
}

func (c Config) validate() error {
	if c.MinInputGB <= 0 || c.MaxInputGB < c.MinInputGB {
		return fmt.Errorf("workload: bad input range [%v, %v]", c.MinInputGB, c.MaxInputGB)
	}
	if c.MaxMaps < 1 {
		return fmt.Errorf("workload: MaxMaps must be >= 1, got %d", c.MaxMaps)
	}
	return nil
}

// Generator draws jobs from the catalog deterministically per seed.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	nextID int
}

// NewGenerator returns a generator with the given config and seed.
func NewGenerator(cfg Config, seed int64) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// Job synthesizes one job of the named benchmark with the given input size.
func (g *Generator) Job(benchName string, inputGB float64) (*Job, error) {
	b, err := BenchmarkByName(benchName)
	if err != nil {
		return nil, err
	}
	if inputGB <= 0 {
		return nil, fmt.Errorf("workload: inputGB must be positive, got %v", inputGB)
	}
	return g.synthesize(b, inputGB), nil
}

// Sample draws one job with the benchmark chosen by Table 1 shares and the
// input size uniform in [MinInputGB, MaxInputGB].
func (g *Generator) Sample() *Job {
	b := g.pickBenchmark()
	input := g.cfg.MinInputGB + g.rng.Float64()*(g.cfg.MaxInputGB-g.cfg.MinInputGB)
	return g.synthesize(b, input)
}

// SampleClass draws one job restricted to the given class.
func (g *Generator) SampleClass(c Class) (*Job, error) {
	benches := CatalogByClass(c)
	if len(benches) == 0 {
		return nil, fmt.Errorf("workload: no benchmarks of class %v", c)
	}
	var total float64
	for _, b := range benches {
		total += b.Share
	}
	x := g.rng.Float64() * total
	for _, b := range benches {
		if x < b.Share {
			input := g.cfg.MinInputGB + g.rng.Float64()*(g.cfg.MaxInputGB-g.cfg.MinInputGB)
			return g.synthesize(b, input), nil
		}
		x -= b.Share
	}
	input := g.cfg.MinInputGB + g.rng.Float64()*(g.cfg.MaxInputGB-g.cfg.MinInputGB)
	return g.synthesize(benches[len(benches)-1], input), nil
}

// Workload draws n jobs per the Table 1 mix.
func (g *Generator) Workload(n int) []*Job {
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = g.Sample()
	}
	return jobs
}

func (g *Generator) pickBenchmark() Benchmark {
	cat := Catalog()
	var total float64
	for _, b := range cat {
		total += b.Share
	}
	x := g.rng.Float64() * total
	for _, b := range cat {
		if x < b.Share {
			return b
		}
		x -= b.Share
	}
	return cat[len(cat)-1]
}

func (g *Generator) synthesize(b Benchmark, inputGB float64) *Job {
	nMaps := int(math.Ceil(inputGB / splitGB))
	if nMaps > g.cfg.MaxMaps {
		nMaps = g.cfg.MaxMaps
	}
	if nMaps < 1 {
		nMaps = 1
	}
	nReduces := int(math.Ceil(float64(nMaps) * reducesPerMap))
	if nReduces < 1 {
		nReduces = 1
	}

	j := &Job{
		ID:          g.nextID,
		Benchmark:   b.Name,
		Class:       b.Class,
		InputGB:     inputGB,
		NumMaps:     nMaps,
		NumReduces:  nReduces,
		RemoteMapGB: inputGB * b.RemoteMapRatio,
	}
	g.nextID++

	totalShuffle := inputGB * b.ShuffleRatio

	// Per-map output share: uniform with multiplicative jitter.
	mapShare := make([]float64, nMaps)
	var mapSum float64
	for m := range mapShare {
		mapShare[m] = 1 + mapNoise*(2*g.rng.Float64()-1)
		mapSum += mapShare[m]
	}
	// Per-reduce partition share: Zipf-like r^-skew, shuffled so the hot
	// partition lands on a random reduce index.
	redShare := make([]float64, nReduces)
	var redSum float64
	for r := range redShare {
		redShare[r] = math.Pow(float64(r+1), -partitionSkew)
		redSum += redShare[r]
	}
	g.rng.Shuffle(nReduces, func(a, bb int) { redShare[a], redShare[bb] = redShare[bb], redShare[a] })

	j.Shuffle = make([][]float64, nMaps)
	for m := range j.Shuffle {
		j.Shuffle[m] = make([]float64, nReduces)
		mapOut := totalShuffle * mapShare[m] / mapSum
		for r := range j.Shuffle[m] {
			j.Shuffle[m][r] = mapOut * redShare[r] / redSum
		}
	}

	// Compute times: proportional to bytes processed, with jitter.
	perMapInput := inputGB / float64(nMaps)
	j.MapComputeSec = make([]float64, nMaps)
	for m := range j.MapComputeSec {
		j.MapComputeSec[m] = perMapInput * b.MapSecondsPerGB * (0.9 + 0.2*g.rng.Float64())
	}
	j.ReduceComputeSec = make([]float64, nReduces)
	for r := range j.ReduceComputeSec {
		j.ReduceComputeSec[r] = j.ReduceInputGB(r) * b.ReduceSecondsPerGB * (0.9 + 0.2*g.rng.Float64())
	}
	return j
}

// PoissonArrivals draws n job submission times with exponentially
// distributed inter-arrival gaps at the given rate (jobs per time unit),
// sorted ascending and starting at the first gap. Deterministic per seed.
func PoissonArrivals(n int, rate float64, seed int64) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative arrival count %d", n)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = t
	}
	return out, nil
}
