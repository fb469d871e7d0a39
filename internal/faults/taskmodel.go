package faults

// TaskModel draws per-attempt task faults as pure hash functions of
// (seed, job, task, attempt): every draw is independent of query order, so
// a retry or speculative launch cannot shift any other task's outcome —
// the property that keeps faulty runs bit-identical under replay.
type TaskModel struct {
	// FailureProb is the probability any single map attempt fails and must
	// be re-executed.
	FailureProb float64
	// RetryBudget caps re-executions per task; zero selects 3. When every
	// attempt up to the budget fails, the task — and its job — is marked
	// failed and accounted in the run report.
	RetryBudget int
	// BackoffT is the delay before retry k (doubling per attempt:
	// BackoffT × 2^(k−1)); zero selects 1 T.
	BackoffT float64
	// StragglerProb is the per-attempt straggler probability.
	StragglerProb float64
	// StragglerFactor is the straggler slowdown multiplier; zero selects 3.
	StragglerFactor float64
	// SpeculationThreshold is the slowdown (observed / nominal duration)
	// past which a speculative backup launches; zero selects 1.5.
	SpeculationThreshold float64
	// Speculation enables backup launches for stragglers (first finisher
	// wins; see sim's fault path).
	Speculation bool
	// Seed keys every hash draw.
	Seed uint64
}

// Inert reports whether the model never perturbs any task.
func (m TaskModel) Inert() bool {
	return m.FailureProb <= 0 && m.StragglerProb <= 0
}

// Budget is the retry budget in force: RetryBudget, or 3 when that is
// zero or negative.
func (m TaskModel) Budget() int {
	if m.RetryBudget <= 0 {
		return 3
	}
	return m.RetryBudget
}

func (m TaskModel) backoffT() float64 {
	if m.BackoffT <= 0 {
		return 1
	}
	return m.BackoffT
}

func (m TaskModel) stragglerFactor() float64 {
	if m.StragglerFactor <= 0 {
		return 3
	}
	return m.StragglerFactor
}

func (m TaskModel) speculationThreshold() float64 {
	if m.SpeculationThreshold <= 0 {
		return 1.5
	}
	return m.SpeculationThreshold
}

// splitmix64's finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// salts separate the failure and straggler draw families.
const (
	saltFailure   = 0x8af6_0626_3a1b_9c7d
	saltStraggler = 0xd1b5_4a32_d192_ed03
)

// u01 maps (seed, salt, job, task, attempt) to [0, 1) with 53-bit
// precision.
func (m TaskModel) u01(salt uint64, jobID, index, attempt int) float64 {
	h := mix64(m.Seed ^ salt)
	h = mix64(h ^ uint64(int64(jobID)))
	h = mix64(h ^ uint64(int64(index)))
	h = mix64(h ^ uint64(int64(attempt)))
	return float64(h>>11) / (1 << 53)
}

// AttemptFails reports whether attempt `attempt` (0-based) of map task
// (jobID, index) fails.
func (m TaskModel) AttemptFails(jobID, index, attempt int) bool {
	return m.FailureProb > 0 && m.u01(saltFailure, jobID, index, attempt) < m.FailureProb
}

// Straggles reports whether the attempt runs StragglerFactor× slow.
func (m TaskModel) Straggles(jobID, index, attempt int) bool {
	return m.StragglerProb > 0 && m.u01(saltStraggler, jobID, index, attempt) < m.StragglerProb
}

// RetryDelay is the deterministic backoff before re-execution `attempt`
// (1-based: the delay preceding that attempt).
func (m TaskModel) RetryDelay(attempt int) float64 {
	d := m.backoffT()
	for k := 1; k < attempt; k++ {
		d *= 2
	}
	return d
}

// AttemptDuration resolves one attempt's wall time from its nominal
// duration d: stragglers run stragglerFactor× slower; with speculation on
// and the slowdown past the threshold, a backup launches (launched) and
// the winner finishes at min(straggled, threshold + nominal) — the backup
// starts once the slowdown is detected and runs a nominal-length copy.
// won reports the backup finishing first.
func (m TaskModel) AttemptDuration(d float64, jobID, index, attempt int) (dur float64, straggled, launched, won bool) {
	if !m.Straggles(jobID, index, attempt) {
		return d, false, false, false
	}
	slow := d * m.stragglerFactor()
	if !m.Speculation || m.stragglerFactor() <= m.speculationThreshold() {
		return slow, true, false, false
	}
	backup := d*m.speculationThreshold() + d
	if backup < slow {
		return backup, true, true, true
	}
	return slow, true, true, false
}
