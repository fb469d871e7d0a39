package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 200
	var counts [n]int32
	if err := ForEach(n, 8, func(i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	sentinel3 := errors.New("three")
	sentinel7 := errors.New("seven")
	err := ForEach(10, 4, func(i int) error {
		switch i {
		case 3:
			return sentinel3
		case 7:
			return sentinel7
		}
		return nil
	})
	if !errors.Is(err, sentinel3) {
		t.Errorf("err = %v, want the lowest-index error", err)
	}
}

func TestForEachAllTasksRunDespiteError(t *testing.T) {
	var ran int32
	_ = ForEach(50, 4, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if ran != 50 {
		t.Errorf("ran %d tasks, want 50", ran)
	}
}

func TestForEachEdgeCases(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := ForEach(-5, 4, nil); err != nil {
		t.Errorf("negative n: %v", err)
	}
	if err := ForEach(3, 4, nil); err == nil {
		t.Error("nil fn accepted")
	}
	// workers <= 0 defaults; workers > n clamps.
	if err := ForEach(3, 0, func(int) error { return nil }); err != nil {
		t.Error(err)
	}
	if err := ForEach(2, 100, func(int) error { return nil }); err != nil {
		t.Error(err)
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	err := ForEach(4, 2, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "panicked") {
		t.Errorf("panic not converted to error: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestMapOrdersResults(t *testing.T) {
	out, err := Map(20, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if _, err := Map(5, 2, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("bad")
		}
		return i, nil
	}); err == nil {
		t.Error("error swallowed")
	}
}

// TestQuickDeterministicResults: for pure fn, Map output is independent of
// worker count.
func TestQuickDeterministicResults(t *testing.T) {
	f := func(nSeed, wSeed uint8) bool {
		n := int(nSeed%32) + 1
		w := int(wSeed%8) + 1
		a, err1 := Map(n, 1, func(i int) (int, error) { return 3*i + 1, nil })
		b, err2 := Map(n, w, func(i int) (int, error) { return 3*i + 1, nil })
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
