package stablematch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestMatcherParityWithMatch: a Matcher fed a stream of random instances
// (interleaved so slab reuse is exercised across differing shapes) must
// return exactly what the one-shot Match returns for every instance.
func TestMatcherParityWithMatch(t *testing.T) {
	f := func(seed int64, pn, hn, capSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Matcher{}
		for i := 0; i < 4; i++ {
			nP := int(pn%10) + 1 + i
			nH := int(hn%6) + 1
			caps := make([]float64, nH)
			for h := range caps {
				caps[h] = float64(int(capSeed)%3 + 1)
			}
			in := randInstance(rng, nP, nH, caps)
			want, err := Match(in)
			if err != nil {
				return false
			}
			got, err := m.Match(in)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMatcherWarmStart pins what a warm Matcher saves and what it must
// not share. A repeat Match on a warm Matcher allocates only what its
// Result needs (the Result, HostOf, TenantsOf and one list per tenanted
// host) plus Validate's two stamp arrays, and so fewer objects than the
// one-shot Match, which also builds the slabs. Two successive Results
// share no backing array, with each other or with the slabs.
func TestMatcherWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	caps := make([]float64, 12)
	for h := range caps {
		caps[h] = 4
	}
	in := randInstance(rng, 40, 12, caps)

	m := &Matcher{}
	first, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm repeat diverged: %+v vs %+v", second, first)
	}

	tenanted := 0
	for _, ts := range first.TenantsOf {
		if len(ts) > 0 {
			tenanted++
		}
	}
	need := 3 + tenanted
	warm := testing.AllocsPerRun(20, func() {
		if _, err := m.Match(in); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(20, func() {
		if _, err := Match(in); err != nil {
			t.Fatal(err)
		}
	})
	if warm > float64(need+2) {
		t.Errorf("warm Match allocates %v objects, want at most %d (Result needs %d, Validate 2)", warm, need+2, need)
	}
	if warm >= cold {
		t.Errorf("warm Match allocates %v objects, one-shot Match %v: the slabs are not reused", warm, cold)
	}

	// Overwrite every entry of the second Result: the first must keep its
	// values, and the next run must not write into the second's arrays.
	want, err := Match(in)
	if err != nil {
		t.Fatal(err)
	}
	for p := range second.HostOf {
		second.HostOf[p] = -2
	}
	for _, ts := range second.TenantsOf {
		for i := range ts {
			ts[i] = -2
		}
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatal("the first Result shares a backing array with the second")
	}
	third, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, want) {
		t.Fatalf("third warm Match diverged: %+v vs %+v", third, want)
	}
	for p, h := range second.HostOf {
		if h != -2 {
			t.Fatalf("the third run wrote HostOf[%d] of the second Result", p)
		}
	}
	for h, ts := range second.TenantsOf {
		for _, q := range ts {
			if q != -2 {
				t.Fatalf("the third run wrote TenantsOf[%d] of the second Result", h)
			}
		}
	}
}
