package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 200
	var counts [n]int32
	if err := forEach(n, func(i int) error {
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
	err := forEach(10, func(i int) error {
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
	_ = forEach(50, func(i int) error {
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
	if err := forEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := forEach(-5, nil); err != nil {
		t.Errorf("negative n: %v", err)
	}
	if _, err := Map[int](3, nil); err == nil {
		t.Error("nil fn accepted")
	}
	// Fewer tasks than GOMAXPROCS: the worker count clamps to n.
	if err := forEach(1, func(int) error { return nil }); err != nil {
		t.Error(err)
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	err := forEach(4, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic not converted to error: %v", err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	out, err := Map(20, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if _, err := Map(5, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("bad")
		}
		return i, nil
	}); err == nil {
		t.Error("error swallowed")
	}
}

// TestQuickDeterministicResults: for pure fn, Map output on one worker
// equals its output on the default GOMAXPROCS workers.
func TestQuickDeterministicResults(t *testing.T) {
	f := func(nSeed uint8) bool {
		n := int(nSeed%32) + 1
		fn := func(i int) (int, error) { return 3*i + 1, nil }
		prev := runtime.GOMAXPROCS(1)
		a, err1 := Map(n, fn)
		runtime.GOMAXPROCS(prev)
		b, err2 := Map(n, fn)
		if err1 != nil || err2 != nil || len(a) != n || len(b) != n {
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
