// Package metrics provides the small statistical toolkit the experiment
// harness uses to report paper-style results: sample collections with means
// and percentiles, empirical CDFs (Figure 6 is presented as CDFs of job and
// task times), and fixed-width text tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ApproxTolerance is ApproxEqual's default relative/absolute tolerance:
// generous enough to absorb summation-order rounding, far below any
// meaningful cost or delay difference in the evaluation.
const ApproxTolerance = 1e-9

// ApproxEqual reports whether two floats are equal within a combined
// absolute-plus-relative tolerance. This is the epsilon helper the
// taalint floateq check points at: accumulated costs and utilities must
// never be compared with == / !=, whose result depends on summation
// order and platform rounding.
func ApproxEqual(a, b float64) bool {
	if a == b { //taalint:floateq fast path; the tolerance below decides near-misses
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= ApproxTolerance+ApproxTolerance*scale
}

// Sample is an accumulating collection of float64 observations.
type Sample struct {
	values []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddAll appends many observations.
func (s *Sample) AddAll(vs []float64) {
	s.values = append(s.values, vs...)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.values) }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	return s.Sum() / float64(len(s.values))
}

// Min returns the smallest observation, or NaN when empty.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation, or NaN when empty.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between closest ranks, or NaN when empty or p is out of
// range.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	s.ensureSorted()
	if len(s.values) == 1 {
		return s.values[0]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Values returns a sorted copy of the observations.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // P(X <= Value)
}

// CDF returns the empirical CDF of the sample evaluated at up to maxPoints
// evenly spaced ranks (all points when maxPoints <= 0 or exceeds N).
func (s *Sample) CDF(maxPoints int) []CDFPoint {
	n := len(s.values)
	if n == 0 {
		return nil
	}
	s.ensureSorted()
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	out := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := (i + 1) * n / maxPoints
		if idx > n {
			idx = n
		}
		out = append(out, CDFPoint{Value: s.values[idx-1], Fraction: float64(idx) / float64(n)})
	}
	return out
}

// Improvement returns the relative reduction of got versus baseline:
// (baseline - got) / baseline. Positive means got is better (smaller).
// It returns NaN when baseline is zero.
func Improvement(baseline, got float64) float64 {
	if baseline == 0 { //taalint:floateq exact-zero division guard; NaN for zero baseline is the documented contract

		return math.NaN()
	}
	return (baseline - got) / baseline
}

// Table formats rows of paper-style results as fixed-width text.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row formatting each value with the matching verb in
// formats ("%s", "%.2f", ...). formats and values must pair up.
func (t *Table) AddRowf(formats []string, values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		f := "%v"
		if i < len(formats) {
			f = formats[i]
		}
		cells[i] = fmt.Sprintf(f, v)
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
