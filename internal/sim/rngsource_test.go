package sim

import (
	"math/rand"
	"testing"
)

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
