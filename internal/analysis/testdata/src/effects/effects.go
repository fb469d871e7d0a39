// Package effects is the unit fixture for the v3 effects engine:
// recursion, call-chain parameter writes, deferred writes.
package effects

type counter struct {
	n    int
	hits int
}

// ping/pong are mutually recursive; the fixpoint must mark both as
// writing through c.
func ping(c *counter, depth int) {
	if depth == 0 {
		c.n = 0
		return
	}
	pong(c, depth-1)
}

func pong(c *counter, depth int) { ping(c, depth-1) }

// writeThrough/via: a parameter write two calls deep must propagate to
// the forwarding function's summary.
func writeThrough(s []int) { s[0] = 1 }

func via(s []int) { writeThrough(s) }

// pure only reads.
func pure(c *counter) int { return c.n }

// deferredWrite mutates through a deferred closure; still a write this
// function may perform.
func deferredWrite(c *counter) {
	defer func() { c.hits++ }()
}

// rebind only rebinds its parameter: not a write through it.
func rebind(s []int) {
	s = make([]int, 1)
	_ = s
}
