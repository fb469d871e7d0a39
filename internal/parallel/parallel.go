// Package parallel provides the small fan-out primitive the experiment
// harness uses to run independent simulations concurrently: a bounded
// worker pool over an index range with first-error collection. Results stay
// deterministic because every task writes only to its own index and owns
// its engine, RNG and cluster — the pool changes wall-clock time, never
// values.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for i in [0, n) on up to `workers` goroutines
// (workers <= 0 means GOMAXPROCS) and returns the first error by index
// order. All tasks run even when one fails, so partial side effects stay
// deterministic.
//
// Callers are bound by taalint's mergeorder contract: fn must be a
// function literal whose writes to captured state are index-addressed by
// i (each worker owns its slot), or the captured slice must be explicitly
// sorted after ForEach returns — completion order is scheduler-dependent
// and must never reach a decision value.
//
// fn is also bound by the snapshotfreeze contract: netstate read-API
// results it captures (dist rows, templates, stage lists) are shared
// views, frozen while workers run — storing them into per-index slots is
// fine; writing through them is not. Copy before mutating.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("parallel: nil function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = safeCall(fn, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safeCall shields the pool from panics in fn, converting them to errors so
// one bad task cannot kill the process from a worker goroutine.
func safeCall(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Map runs fn for every index and collects the results in order.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
