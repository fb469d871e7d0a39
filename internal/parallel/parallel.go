// Package parallel provides the small fan-out primitive the experiment
// harness uses to run independent simulations concurrently: a worker pool
// over an index range with first-error collection. Results stay
// deterministic because every task writes only to its own index and owns
// its engine, RNG and cluster — the pool changes wall-clock time, never
// values.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Map runs fn for every index in [0, n) on up to GOMAXPROCS goroutines
// and collects the results in index order. It returns the first error by
// index order. All tasks run even when one fails, so partial side effects
// stay deterministic.
//
// Callers are bound by taalint's mergeorder contract: fn must be a
// function literal whose writes to captured state are index-addressed by
// i (each worker owns its slot), or the captured slice must be explicitly
// sorted after Map returns — completion order is scheduler-dependent and
// must never reach a decision value.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := forEach(n, func(i int) error {
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

// forEach is Map's body: it runs fn(i) for i in [0, n) on up to
// GOMAXPROCS goroutines and returns the first error by index order.
func forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), n)
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
