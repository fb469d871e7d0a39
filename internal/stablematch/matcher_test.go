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

// TestMatcherReplay: a repeat of the previous instance replays the memoized
// result (bit-identical) whether the rows are the same slices or fresh
// content-equal copies, and any content change falls back to a full run.
func TestMatcherReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	caps := []float64{2, 1, 2}
	in := randInstance(rng, 7, 3, caps)
	in.Load = []float64{1, 1, 2, 1, 1, 1, 2}

	m := &Matcher{}
	first, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}

	// Same slices: pointer shortcut.
	again, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("replay (aliased rows) diverged: %+v vs %+v", again, first)
	}
	if again == first || &again.HostOf[0] == &first.HostOf[0] {
		t.Fatal("replay returned an aliased Result; caller must own its copy")
	}

	// Fresh content-equal copies: content comparison.
	cp := &Instance{
		NumProposers:  in.NumProposers,
		NumHosts:      in.NumHosts,
		ProposerPrefs: make([][]int, len(in.ProposerPrefs)),
		HostPrefs:     make([][]int, len(in.HostPrefs)),
		Load:          append([]float64(nil), in.Load...),
		Capacity:      append([]float64(nil), in.Capacity...),
	}
	for i, r := range in.ProposerPrefs {
		cp.ProposerPrefs[i] = append([]int(nil), r...)
	}
	for i, r := range in.HostPrefs {
		cp.HostPrefs[i] = append([]int(nil), r...)
	}
	again, err = m.Match(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("replay (copied rows) diverged: %+v vs %+v", again, first)
	}

	// A capacity change must miss the memo and still agree with Match.
	cp.Capacity = []float64{1, 1, 1}
	want, err := Match(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Match(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-change match diverged: %+v vs %+v", got, want)
	}

	// Nil load vs explicit unit loads are different instances by contract
	// (nil means defaults); the memo must not conflate them.
	unit := &Instance{
		NumProposers:  2,
		NumHosts:      2,
		ProposerPrefs: [][]int{{0, 1}, {0, 1}},
		HostPrefs:     [][]int{{0, 1}, {0, 1}},
	}
	if _, err := m.Match(unit); err != nil {
		t.Fatal(err)
	}
	withLoad := *unit
	withLoad.Load = []float64{1, 1}
	if _, err := m.Match(&withLoad); err != nil {
		t.Fatal(err)
	}
}
