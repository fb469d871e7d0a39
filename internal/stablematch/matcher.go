// Matcher: slab-reusing, replay-memoizing front end to Match.
//
// The joint optimization loop (core.HitScheduler) solves one matching
// instance per container group per iteration, and successive instances over
// the same cluster share their shape exactly: same host count, same proposer
// count, and — once the preference build converges — the very same ranked
// lists. A Matcher keeps the dense rank/blacklist slabs alive between calls
// so steady-state matching allocates only the Result, and when an instance
// is provably identical to the previous one it replays the previous stable
// matching outright (deferred acceptance is deterministic, so the replay is
// bit-identical to a fresh run). This is the warm start the scheduler's
// wave loop relies on; any difference in the inputs falls back to a full
// match, and parity tests pin the two paths equal.
package stablematch

import "math"

// Matcher reuses scratch slabs across Match calls and replays the previous
// result when the instance provably did not change. The zero value is ready
// to use. A Matcher must not be used from multiple goroutines concurrently.
type Matcher struct {
	// Scratch slabs, regrown on demand and reset per run.
	rankBack    []int32
	hostRank    [][]int32
	blackBack   []bool
	blacklist   [][]bool
	rejectedTop []int
	next        []int
	used        []float64
	tenants     [][]int
	free        []int

	// Replay memo: the previous instance (row slices aliased, scalars
	// copied) and its result.
	prev    memoInstance
	prevRes *Result
}

// memoInstance snapshots the parts of an Instance that determine Match's
// output. Preference rows are aliased, not copied: callers that rebuild a
// row in place would defeat the pointer shortcut but still be caught by the
// content comparison, and callers that reuse rows verbatim (the scheduler's
// preference memo) hit the cheap path.
type memoInstance struct {
	numProposers  int
	numHosts      int
	proposerPrefs [][]int
	hostPrefs     [][]int
	load          []float64
	capacity      []float64
}

// Match validates the instance and returns a stable matching, replaying the
// previous result when the instance is provably identical to the last call's
// (replay skips re-validation too: a bit-identical copy of a valid instance
// is valid). The returned Result is owned by the caller; the memo keeps its
// own clone.
func (m *Matcher) Match(in *Instance) (*Result, error) {
	if m.prevRes != nil && m.prev.matches(in) {
		return m.prevRes.clone(), nil
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	res := m.run(in)
	m.remember(in, res)
	return res, nil
}

// remember snapshots the instance and result for the next call's replay
// check.
func (m *Matcher) remember(in *Instance, res *Result) {
	m.prev = memoInstance{
		numProposers:  in.NumProposers,
		numHosts:      in.NumHosts,
		proposerPrefs: append([][]int(nil), in.ProposerPrefs...),
		hostPrefs:     append([][]int(nil), in.HostPrefs...),
		load:          append([]float64(nil), in.Load...),
		capacity:      append([]float64(nil), in.Capacity...),
	}
	m.prevRes = res.clone()
}

// matches reports whether in would provably reproduce the memoized result:
// identical dimensions, preference rows equal (pointer shortcut, then
// content), and load/capacity vectors bitwise equal.
func (mi *memoInstance) matches(in *Instance) bool {
	if in.NumProposers != mi.numProposers || in.NumHosts != mi.numHosts {
		return false
	}
	return sameIntRows(mi.proposerPrefs, in.ProposerPrefs) &&
		sameIntRows(mi.hostPrefs, in.HostPrefs) &&
		sameFloatBits(mi.load, in.Load) &&
		sameFloatBits(mi.capacity, in.Capacity)
}

func sameIntRows(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameIntRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameIntRow(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameFloatBits compares float vectors bit-for-bit (so ±0 and NaN mismatches
// conservatively miss the memo). nil means "defaults apply", which only
// matches nil.
func sameFloatBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// clone deep-copies a Result so memo and caller cannot alias.
func (r *Result) clone() *Result {
	out := &Result{
		HostOf:    append([]int(nil), r.HostOf...),
		TenantsOf: make([][]int, len(r.TenantsOf)),
		Rounds:    r.Rounds,
	}
	for h, t := range r.TenantsOf {
		out.TenantsOf[h] = append([]int(nil), t...)
	}
	return out
}

// --- slab growth/reset helpers ----------------------------------------------
//
// Each returns a length-n slice reusing the argument's backing array when it
// is big enough, with contents reset to the zero value (the range-assign
// loops compile to memclr).

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growRows(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

func growBoolRows(s [][]bool, n int) [][]bool {
	if cap(s) < n {
		return make([][]bool, n)
	}
	return s[:n]
}

// growTenants keeps each per-host tenant list's capacity but empties it.
func growTenants(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	s = s[:n]
	for h := range s {
		s[h] = s[h][:0]
	}
	return s
}
