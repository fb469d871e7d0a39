package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty sample stats not NaN/zero")
	}
	s.AddAll([]float64{4, 1, 3, 2})
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Sum(); got != 10 {
		t.Errorf("Sum = %v", got)
	}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != 4 {
		t.Errorf("Max = %v", got)
	}
	if got := s.Median(); got != 2.5 {
		t.Errorf("Median = %v", got)
	}
	// Adding after sort keeps correctness.
	s.Add(0)
	if got := s.Min(); got != 0 {
		t.Errorf("Min after Add = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	s.AddAll([]float64{10, 20, 30, 40, 50})
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {90, 46},
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(s.Percentile(-1)) || !math.IsNaN(s.Percentile(101)) {
		t.Error("out-of-range percentile not NaN")
	}
	var single Sample
	single.Add(7)
	if got := single.Percentile(50); got != 7 {
		t.Errorf("single-value P50 = %v", got)
	}
}

func TestValuesReturnsSortedCopy(t *testing.T) {
	var s Sample
	s.AddAll([]float64{3, 1, 2})
	v := s.Values()
	if !sort.Float64sAreSorted(v) {
		t.Errorf("Values not sorted: %v", v)
	}
	v[0] = 99
	if s.Min() == 99 {
		t.Error("Values aliases internal storage")
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF points = %d, want 10", len(pts))
	}
	if pts[len(pts)-1].Fraction != 1 {
		t.Errorf("last fraction = %v, want 1", pts[len(pts)-1].Fraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
			t.Errorf("CDF not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if got := s.CDF(0); len(got) != 100 {
		t.Errorf("CDF(0) points = %d, want all 100", len(got))
	}
	var empty Sample
	if empty.CDF(5) != nil {
		t.Error("empty CDF not nil")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 72); math.Abs(got-0.28) > 1e-12 {
		t.Errorf("Improvement = %v, want 0.28", got)
	}
	if got := Improvement(100, 110); got >= 0 {
		t.Errorf("worse result should be negative, got %v", got)
	}
	if !math.IsNaN(Improvement(0, 5)) {
		t.Error("zero baseline not NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "scheduler", "cost")
	tb.AddRow("capacity", "100.0")
	tb.AddRowf([]string{"%s", "%.1f"}, "hit", 62.0)
	out := tb.String()
	if !strings.Contains(out, "== Results ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "capacity") || !strings.Contains(out, "62.0") {
		t.Errorf("missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	// Untitled table has no title line.
	tb2 := NewTable("", "a")
	if strings.Contains(tb2.String(), "==") {
		t.Error("untitled table rendered a title")
	}
}

// TestQuickPercentileWithinRange: percentiles always lie within [min, max]
// and are monotone in p.
func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n%50)+1; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < s.Min()-1e-9 || v > s.Max()+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickMeanBounds: mean lies within [min, max].
func TestQuickMeanBounds(t *testing.T) {
	f := func(vs []float64) bool {
		clean := vs[:0]
		for _, v := range vs {
			// Keep magnitudes modest so the sum cannot overflow.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Sample
		s.AddAll(clean)
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
