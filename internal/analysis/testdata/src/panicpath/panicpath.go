// Package fixture exercises the panicpath check. It is loaded under the
// synthetic import path "fixture/sim" so the decision-package rule
// applies.
package fixture

import "sync"

// FanOut launches a naked worker goroutine: a panic in the closure kills
// the process instead of surfacing as an error. Flagged.
func FanOut(work []int) {
	var wg sync.WaitGroup
	for range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// Detach launches a named function bare; equally unrecovered. Flagged.
func Detach(done chan struct{}) {
	go signal(done)
}

func signal(done chan struct{}) { close(done) }

// Inline runs the closure on the calling goroutine — deferred, not
// detached. Not flagged.
func Inline(fn func()) {
	defer fn()
	fn()
}

// Drain is a deliberate exception with a recorded reason; suppressed.
func Drain(ch chan int) {
	go func() { //taalint:panicpath fire-and-forget drain of a closed channel, nothing to replay
		for range ch {
		}
	}()
}
