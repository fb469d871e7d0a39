package sim

import "math/rand"

// CountingSource wraps math/rand's seeded source and counts every draw,
// giving checkpoint/restore an exact RNG stream position: each Int63 or
// Uint64 call advances the underlying generator exactly one step, so the
// draw count at a wave boundary pins the stream, and FastForward replays
// a fresh source to the same position bit-for-bit.
//
// The wrapper is transparent: rand.New(NewCountingSource(seed)) produces
// the identical value stream to rand.New(rand.NewSource(seed)).
type CountingSource struct {
	src rand.Source64
	n   uint64
}

// NewCountingSource returns a counting wrapper over rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Seed implements rand.Source and resets the draw count.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Draws returns how many values have been drawn since seeding.
func (c *CountingSource) Draws() uint64 { return c.n }

// FastForward advances the stream until Draws() == n (no-op when already
// past n).
func (c *CountingSource) FastForward(n uint64) {
	for c.n < n {
		c.Uint64()
	}
}
