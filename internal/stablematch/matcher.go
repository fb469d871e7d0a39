// Matcher: the slab-reusing front end to Match. The joint optimization
// loop (core.HitScheduler) holds one per container group, whose instances
// keep their shape (host and proposer counts) from one iteration to the
// next, so steady-state matching allocates only the Result.

package stablematch

// Matcher reuses scratch slabs across Match calls. The zero value is ready
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
}

// Match validates the instance and returns a stable matching computed over
// m's slabs. The returned Result is owned by the caller: it shares no
// backing array with the slabs or with any earlier Result.
func (m *Matcher) Match(in *Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return m.run(in), nil
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
