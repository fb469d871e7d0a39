// Package stablematch is the poolescape golden fixture: sync.Pool
// objects must reach a Put on every exit path, and neither pooled nor
// registered-slab memory may escape the call. Loaded as
// fixture/stablematch so the slab-field table (peSlabFields) keys
// exactly as it does for the real Matcher.
package stablematch

import (
	"errors"
	"sync"
)

type scratch struct {
	grades []float64
	idx    []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

var errInvalid = errors.New("invalid size")

// Solve draws scratch, defers the Put and returns only fresh memory: the
// canonical safe shape (near-miss for both rules).
func Solve(n int) []int32 {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	grades := growFloats(sc.grades, n)
	sc.grades = grades // re-slicing back into the pooled container is fine
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(grades[i])
	}
	return out
}

// LeakOnError returns early without putting the scratch back (trigger:
// rule A, Put missing on one exit path).
func LeakOnError(n int) error {
	sc := scratchPool.Get().(*scratch)
	if n < 0 {
		return errInvalid
	}
	sc.grades = growFloats(sc.grades, n)
	scratchPool.Put(sc)
	return nil
}

// ReturnsView returns a re-sliced view of pooled memory that outlives
// the Put (trigger: rule B, tainted return).
func ReturnsView(n int) []float64 {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return growFloats(sc.grades, n)
}

// Result is a caller-visible container.
type Result struct {
	Grades []float64
}

// Stash writes pooled memory through a parameter (trigger: rule B,
// outward store).
func Stash(res *Result, n int) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	res.Grades = sc.grades[:n]
}

// Matcher mirrors the real matcher's reusable slabs; rankBack and free
// are registered in peSlabFields.
type Matcher struct {
	rankBack []int32
	free     []int
}

// Ranks returns the raw slab (trigger: rule B, slab view escapes).
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

// The cases below pin the shared path walker's control-flow rules
// (DESIGN.md §6.1) for rule A: a reported Get is one some exit path
// leaves out of the pool.

// SwitchDefault puts the scratch back in every case of a switch that has
// a default: no path falls past the cases (near-miss).
func SwitchDefault(n int) {
	sw := scratchPool.Get().(*scratch)
	switch {
	case n < 0:
		scratchPool.Put(sw)
	default:
		scratchPool.Put(sw)
	}
}

// SelectDefault puts the scratch back in both clauses of a select with a
// default: a select never falls past its clauses (near-miss).
func SelectDefault(ch chan int) {
	sd := scratchPool.Get().(*scratch)
	select {
	case <-ch:
		scratchPool.Put(sd)
	default:
		scratchPool.Put(sd)
	}
}

// SelectBlocking puts the scratch back in both clauses of a select
// without a default, which blocks until one runs (near-miss).
func SelectBlocking(in, out chan int) {
	sb := scratchPool.Get().(*scratch)
	select {
	case <-in:
		scratchPool.Put(sb)
	case out <- 1:
		scratchPool.Put(sb)
	}
}

// AfterReturn's second Get follows a return in the same block: dead code
// leaves nothing out of the pool (near-miss).
func AfterReturn(n int) int {
	sr := scratchPool.Get().(*scratch)
	scratchPool.Put(sr)
	return n
	dead := scratchPool.Get().(*scratch)
	return len(dead.idx)
}

// PanicDeferred panics after the Get with the Put already deferred; the
// panic exit runs the defer (near-miss).
func PanicDeferred(n int) {
	sp := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sp)
	if n < 0 {
		panic("negative size")
	}
}

// DeferOneBranch defers the Put on one branch only, so the other path
// leaves the scratch out (trigger).
func DeferOneBranch(n int) {
	so := scratchPool.Get().(*scratch)
	if n > 0 {
		defer scratchPool.Put(so)
	}
}

// LabeledLoop draws scratch per row and puts it back both before a
// labeled continue and at the end of the row (near-miss).
func LabeledLoop(rows [][]int) {
outer:
	for _, row := range rows {
		sl := scratchPool.Get().(*scratch)
		for _, v := range row {
			if v < 0 {
				scratchPool.Put(sl)
				continue outer
			}
		}
		scratchPool.Put(sl)
	}
}

// BreakSkipsPut draws scratch per row and leaves the loop with a break
// before the row's Put (trigger).
func BreakSkipsPut(rows [][]int) {
	for _, row := range rows {
		sk := scratchPool.Get().(*scratch)
		if len(row) == 0 {
			break
		}
		scratchPool.Put(sk)
	}
}

// ContinueSkipsPut skips the row's Put with a continue, so that pass
// ends with the scratch out of the pool (trigger).
func ContinueSkipsPut(rows [][]int) {
	for _, row := range rows {
		sc := scratchPool.Get().(*scratch)
		if len(row) == 0 {
			continue
		}
		scratchPool.Put(sc)
	}
}
