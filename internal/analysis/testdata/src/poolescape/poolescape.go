// Package stablematch is the poolescape golden fixture: memory held in
// a registered slab field may not escape the call. Loaded as
// fixture/stablematch so the slab-field table (peSlabFields) keys
// exactly as it does for the real Matcher.
package stablematch

// Matcher mirrors the real matcher's reusable slabs; rankBack, used and
// free are registered in peSlabFields.
type Matcher struct {
	rankBack []int32
	used     scratch
	free     []int
}

type scratch struct {
	grades []float64
}

// Result is a caller-visible container.
type Result struct {
	Grades []float64
	Ranks  []int32
}

// Solve works in slab scratch taken by address and returns only fresh
// memory: the canonical safe shape (near-miss).
func (m *Matcher) Solve(n int) []int32 {
	sc := &m.used
	grades := growFloats(sc.grades, n)
	sc.grades = grades // re-slicing back into the slab is fine
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(grades[i])
	}
	return out
}

// ReturnsView returns a helper's view of slab scratch (trigger: tainted
// return through a call result).
func (m *Matcher) ReturnsView(n int) []float64 {
	sc := &m.used
	return growFloats(sc.grades, n)
}

// Stash writes slab scratch through a parameter (trigger: outward
// store).
func (m *Matcher) Stash(res *Result, n int) {
	res.Grades = m.used.grades[:n]
}

// Publish sends the slab on a channel (trigger: the receiver outlives
// the call).
func (m *Matcher) Publish(ch chan []int32) {
	ch <- m.rankBack
}

// Ranks returns the raw slab (trigger: slab view escapes).
func (m *Matcher) Ranks(n int) []int32 {
	m.rankBack = growInt32(m.rankBack, n)
	return m.rankBack
}

// RanksCopy returns a fresh copy of the slab (near-miss: appending the
// elements copies them out of slab memory).
func (m *Matcher) RanksCopy(n int) []int32 {
	m.rankBack = growInt32(m.rankBack, n)
	return append([]int32(nil), m.rankBack...)
}

// Compact re-registers the compacted slab into its own field (near-miss:
// slab stores are re-registration, not escape).
func (m *Matcher) Compact() {
	free := m.free[:0]
	m.free = free
}

// Choose filters into the slab and returns one element of it (near-miss:
// an element of scalar type carries no reference).
func (m *Matcher) Choose(vals []int32, pick int) int32 {
	kept := m.rankBack[:0]
	for _, v := range vals {
		if v >= 0 {
			kept = append(kept, v)
		}
	}
	m.rankBack = kept
	return kept[pick]
}

// Filter filters into the slab and stores the result into a fresh
// container it returns (trigger: the container the store taints escapes
// by the return).
func (m *Matcher) Filter(vals []int32) *Result {
	kept := m.rankBack[:0]
	for _, v := range vals {
		if v >= 0 {
			kept = append(kept, v)
		}
	}
	m.rankBack = kept
	res := &Result{}
	res.Ranks = kept
	return res
}

// RawRanks exposes the slab under an explicit suppression — the
// reviewable escape hatch.
func (m *Matcher) RawRanks() []int32 {
	return m.rankBack //taalint:poolescape test-only raw view, callers copy before the next Match
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}
