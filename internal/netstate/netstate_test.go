package netstate_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netstate"
	"repro/internal/topology"
)

func buildTree(t testing.TB, depth, fanout int) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTree(depth, fanout, topology.LinkParams{
		Bandwidth: 10, Latency: 0.1, SwitchCapacity: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestShortestPathMatchesTopology asserts the oracle reproduces the
// topology's lowest-ID tie-break exactly, for every server pair.
func TestShortestPathMatchesTopology(t *testing.T) {
	topo := buildTree(t, 3, 3)
	o := netstate.New(topo)
	servers := topo.Servers()
	for _, a := range servers {
		for _, b := range servers {
			want := topo.ShortestPath(a, b)
			got := o.ShortestPath(a, b)
			if len(got) != len(want) {
				t.Fatalf("ShortestPath(%d,%d) length %d, want %d", a, b, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ShortestPath(%d,%d) = %v, want %v", a, b, got, want)
				}
			}
			if d := o.Dist(a, b); d != len(want)-1 {
				t.Fatalf("Dist(%d,%d) = %d, want %d", a, b, d, len(want)-1)
			}
		}
	}
}

// TestOraclePropertyUnderMutation is the parameter-mutation property
// test: after an arbitrary sequence of switch-capacity and link-bandwidth
// changes, every memoized answer must equal the uncached reference
// computed fresh on the mutated state.
func TestOraclePropertyUnderMutation(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := buildTree(t, 3, 2)
		cached := netstate.New(topo)
		fresh := netstate.NewUncached(topo)

		servers := topo.Servers()
		switches := topo.Switches()
		links := topo.Links()

		// Warm the caches before mutating, so stale entries would be caught.
		for i := 0; i < 8; i++ {
			a := servers[rng.Intn(len(servers))]
			b := servers[rng.Intn(len(servers))]
			cached.Dist(a, b)
			cached.ShortestPath(a, b)
		}

		for step := 0; step < 24; step++ {
			if rng.Intn(2) == 0 {
				w := switches[rng.Intn(len(switches))]
				if err := topo.SetSwitchCapacity(w, 50+rng.Float64()*100); err != nil {
					t.Fatal(err)
				}
			} else {
				l := links[rng.Intn(len(links))]
				if err := topo.SetLinkBandwidth(l.A, l.B, 1+rng.Float64()*20); err != nil {
					t.Fatal(err)
				}
			}

			a := servers[rng.Intn(len(servers))]
			b := servers[rng.Intn(len(servers))]
			if cached.Dist(a, b) != fresh.Dist(a, b) {
				t.Errorf("seed %d step %d: Dist(%d,%d) cached %d fresh %d",
					seed, step, a, b, cached.Dist(a, b), fresh.Dist(a, b))
				return false
			}
			cp := cached.ShortestPath(a, b)
			fp := fresh.ShortestPath(a, b)
			if len(cp) != len(fp) {
				t.Errorf("seed %d step %d: path length mismatch", seed, step)
				return false
			}
			for i := range cp {
				if cp[i] != fp[i] {
					t.Errorf("seed %d step %d: path %v vs %v", seed, step, cp, fp)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestNearestByDist compares against the brute-force scan.
func TestNearestByDist(t *testing.T) {
	topo := buildTree(t, 3, 3)
	o := netstate.New(topo)
	servers := topo.Servers()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		src := servers[rng.Intn(len(servers))]
		n := 1 + rng.Intn(6)
		cands := make([]topology.NodeID, n)
		for i := range cands {
			cands[i] = servers[rng.Intn(len(servers))]
		}
		want := topology.None
		wantD := math.MaxInt
		for _, c := range cands {
			d := topo.Dist(src, c)
			if d < 0 {
				continue
			}
			if d < wantD || (d == wantD && c < want) {
				wantD, want = d, c
			}
		}
		if got := o.NearestByDist(src, cands); got != want {
			t.Fatalf("NearestByDist(%d, %v) = %d, want %d", src, cands, got, want)
		}
	}
}

// TestTemplatesAndStages asserts the shared template/stage caches match the
// topology-level computation.
func TestTemplatesAndStages(t *testing.T) {
	topo := buildTree(t, 3, 2)
	o := netstate.New(topo)
	servers := topo.Servers()
	a, b := servers[0], servers[len(servers)-1]
	types, err := o.TypeTemplate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	path := topo.ShortestPath(a, b)
	var want []string
	for _, n := range path {
		if topo.Node(n).IsSwitch() {
			want = append(want, topo.Node(n).Type)
		}
	}
	if len(types) != len(want) {
		t.Fatalf("TypeTemplate = %v, want %v", types, want)
	}
	for i := range types {
		if types[i] != want[i] {
			t.Fatalf("TypeTemplate = %v, want %v", types, want)
		}
	}
	stages := o.StagesForTemplate(types)
	if len(stages) != len(types) {
		t.Fatalf("StagesForTemplate: %d stages for %d types", len(stages), len(types))
	}
	for i, typ := range types {
		fromTopo := topo.SwitchesOfType(typ)
		if len(stages[i]) != len(fromTopo) {
			t.Fatalf("stage %d: %d candidates, want %d", i, len(stages[i]), len(fromTopo))
		}
		for j := range stages[i] {
			if stages[i][j] != fromTopo[j] {
				t.Fatalf("stage %d mismatch: %v vs %v", i, stages[i], fromTopo)
			}
		}
	}
	// Second query returns the identical shared slices (memoized), also
	// for an equal template in another slice, and a hit allocates
	// nothing.
	if again := o.StagesForTemplate(types); len(again) > 0 && len(stages) > 0 && &again[0] != &stages[0] {
		t.Error("StagesForTemplate did not return the cached stage list")
	}
	key := append([]string(nil), types...)
	if again := o.StagesForTemplate(key); &again[0] != &stages[0] {
		t.Error("an equal template in another slice missed the cache")
	}
	if n := testing.AllocsPerRun(20, func() { o.StagesForTemplate(key) }); n != 0 {
		t.Errorf("a StagesForTemplate hit allocates %v times, want 0", n)
	}
	// The cache keeps its own copy of a template: the caller may reuse
	// its slice afterwards.
	o2 := netstate.New(topo)
	first := o2.StagesForTemplate(key)
	key[0] = "bogus"
	if again := o2.StagesForTemplate(types); &again[0] != &first[0] {
		t.Error("rewriting the caller's template slice changed the cache key")
	}
}

// TestAccessSwitchCached asserts the cached table matches the topology.
func TestAccessSwitchCached(t *testing.T) {
	topo := buildTree(t, 3, 2)
	o := netstate.New(topo)
	for _, s := range topo.Servers() {
		if got, want := o.AccessSwitch(s), topo.AccessSwitch(s); got != want {
			t.Fatalf("AccessSwitch(%d) = %d, want %d", s, got, want)
		}
	}
	if got := o.AccessSwitch(topology.NodeID(topo.NumNodes())); got != topology.None {
		t.Fatalf("AccessSwitch(out of range) = %d, want None", got)
	}
}
