// Fixture for the mergeorder check, loaded as "fixture/core" so the
// decision-side rules apply; it fans out through the REAL
// repro/internal/parallel so the callee resolution is exercised
// end-to-end. Covers: completion-order append, map insertion, shared
// counter and a by-name worker (triggers); index-addressed slots and an
// explicit post-fan-out sort (near-misses); exactly one suppressed write.
package core

import (
	"sort"

	"repro/internal/parallel"
)

// Good merges through index-addressed slots: each worker owns out[i].
// Near-miss.
func Good(n int) []float64 {
	out := make([]float64, n)
	_, _ = parallel.Map(n, func(i int) (bool, error) {
		out[i] = float64(i) * 1.5
		return true, nil
	})
	return out
}

// BadAppend accumulates in completion order and never restores a
// deterministic order. Trigger.
func BadAppend(n int) []int {
	var got []int
	_, _ = parallel.Map(n, func(i int) (bool, error) {
		got = append(got, i)
		return true, nil
	})
	return got
}

// SortedAppend accumulates out of order but sorts before the slice is
// used, which restores determinism. Near-miss.
func SortedAppend(n int) []int {
	var got []int
	_, _ = parallel.Map(n, func(i int) (bool, error) {
		got = append(got, i)
		return true, nil
	})
	sort.Ints(got)
	return got
}

// BadMap inserts into a shared map from workers; iteration order is
// unrecoverable afterwards. Trigger.
func BadMap(n int) map[int]int {
	m := make(map[int]int)
	_, _ = parallel.Map(n, func(i int) (bool, error) {
		m[i] = i * i
		return true, nil
	})
	return m
}

// BadCell bumps a shared accumulator in completion order. Trigger.
func BadCell(n int) int {
	total := 0
	_, _ = parallel.Map(n, func(i int) (bool, error) {
		total += i
		return true, nil
	})
	return total
}

// BadIndirect hides the worker behind a name, so the merge cannot be
// verified at the call site. Trigger.
func BadIndirect(n int, worker func(int) (bool, error)) error {
	_, err := parallel.Map(n, worker)
	return err
}

// Tolerated is the suppression specimen: exactly one audited escape hatch.
func Tolerated(n int) int {
	total := 0
	_, _ = parallel.Map(n, func(i int) (bool, error) {
		total += i //taalint:mergeorder an integer sum is the same in any order
		return true, nil
	})
	return total
}
