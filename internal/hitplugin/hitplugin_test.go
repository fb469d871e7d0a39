package hitplugin

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/profile"
	"repro/internal/topology"
	"repro/internal/yarn"
)

func newPlugin(t *testing.T) (*Plugin, *cluster.Cluster, *profile.Store) {
	t.Helper()
	topo, err := topology.NewTree(2, 4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	live, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := yarn.NewResourceManager(live)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profile.NewStore(0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the store with the catalog's ground truth for terasort.
	if err := store.Record(profile.Record{Benchmark: "terasort", InputGB: 10, ShuffleGB: 10, RemoteMapGB: 0.8}); err != nil {
		t.Fatal(err)
	}
	p, err := New(rm, live, store, cluster.Resources{CPU: 1, Memory: 512}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, live, store
}

func TestNewValidation(t *testing.T) {
	p, live, store := newPlugin(t)
	_ = p
	if _, err := New(nil, live, store, cluster.Resources{CPU: 1}, 1); err == nil {
		t.Error("nil rm accepted")
	}
	rm, _ := yarn.NewResourceManager(live)
	if _, err := New(rm, nil, store, cluster.Resources{CPU: 1}, 1); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := New(rm, live, nil, cluster.Resources{CPU: 1}, 1); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(rm, live, store, cluster.Resources{}, 1); err == nil {
		t.Error("zero demand accepted")
	}
}

func TestSubmitPlansRealizesAndInstallsPolicies(t *testing.T) {
	p, live, _ := newPlugin(t)
	h, err := p.Submit(Job{Benchmark: "terasort", InputGB: 4, NumMaps: 6, NumReduces: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.MapAllocs) != 6 || len(h.ReduceAllocs) != 3 {
		t.Fatalf("allocs = %d/%d", len(h.MapAllocs), len(h.ReduceAllocs))
	}
	// Idle cluster: every grant on the planned host.
	if got := h.PreferredFraction(); got != 1 {
		t.Errorf("preferred fraction = %v, want 1 on an idle cluster", got)
	}
	// Predicted shuffle = ratio 1.0 x 4 GB.
	if h.PredictedShuffleGB != 4 {
		t.Errorf("predicted shuffle = %v, want 4", h.PredictedShuffleGB)
	}
	// All 18 flows have installed, satisfied policies.
	if len(h.Flows) != 18 {
		t.Fatalf("flows = %d, want 18", len(h.Flows))
	}
	for _, f := range h.Flows {
		pol := p.Controller().Policy(f.ID)
		if pol == nil {
			t.Fatalf("flow %d missing policy", f.ID)
		}
		if err := pol.Satisfied(live.Topology()); err != nil {
			t.Errorf("flow %d: %v", f.ID, err)
		}
	}
	// Containers actually occupy the live cluster.
	used := 0
	for _, s := range live.Servers() {
		used += live.Capacity(s).Sub(live.Free(s)).CPU
	}
	if used != 9 {
		t.Errorf("live CPU used = %d, want 9", used)
	}
	if err := live.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSubmitErrors(t *testing.T) {
	p, _, _ := newPlugin(t)
	if _, err := p.Submit(Job{Benchmark: "terasort", InputGB: 4, NumMaps: 0, NumReduces: 1}); err == nil {
		t.Error("zero maps accepted")
	}
	if _, err := p.Submit(Job{Benchmark: "terasort", InputGB: 0, NumMaps: 1, NumReduces: 1}); err == nil {
		t.Error("zero input accepted")
	}
	if _, err := p.Submit(Job{Benchmark: "unprofiled", InputGB: 4, NumMaps: 1, NumReduces: 1}); err == nil {
		t.Error("unprofiled benchmark accepted")
	}
}

func TestCompleteReleasesAndLearns(t *testing.T) {
	p, live, store := newPlugin(t)
	h, err := p.Submit(Job{Benchmark: "terasort", InputGB: 4, NumMaps: 4, NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := store.Estimate("terasort")
	// Observed shuffle lower than predicted: the store should drift down.
	if err := p.Complete(h, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	after, _ := store.Estimate("terasort")
	if !(after.ShuffleRatio < before.ShuffleRatio) {
		t.Errorf("ratio did not drift down: %v -> %v", before.ShuffleRatio, after.ShuffleRatio)
	}
	if after.Samples != before.Samples+1 {
		t.Errorf("samples = %d", after.Samples)
	}
	// Cluster is empty again and policies are gone.
	for _, s := range live.Servers() {
		if !live.Capacity(s).Sub(live.Free(s)).IsZero() {
			t.Errorf("server %d still used: %v", s, live.Capacity(s).Sub(live.Free(s)))
		}
	}
	if p.Controller().NumPolicies() != 0 {
		t.Errorf("%d policies remain", p.Controller().NumPolicies())
	}
	// Negative observations mean "trust prediction": must not error.
	h2, err := p.Submit(Job{Benchmark: "terasort", InputGB: 4, NumMaps: 2, NumReduces: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Complete(h2, -1, -1); err != nil {
		t.Fatal(err)
	}
	if err := p.Complete(nil, 0, 0); err == nil {
		t.Error("nil handle accepted")
	}
}

func TestSubmitUnderPressureFallsBackButRuns(t *testing.T) {
	p, live, _ := newPlugin(t)
	// Occupy most of the cluster.
	for i, s := range live.Servers() {
		if i%2 == 0 {
			continue
		}
		ct, _ := live.NewContainer(cluster.Resources{CPU: 4, Memory: 1})
		if err := live.Place(ct.ID, s); err != nil {
			t.Fatal(err)
		}
	}
	h, err := p.Submit(Job{Benchmark: "terasort", InputGB: 4, NumMaps: 6, NumReduces: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.MapAllocs)+len(h.ReduceAllocs) != 9 {
		t.Fatalf("grants = %d", len(h.MapAllocs)+len(h.ReduceAllocs))
	}
	if err := live.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSequentialJobsShareFabric(t *testing.T) {
	p, _, _ := newPlugin(t)
	h1, err := p.Submit(Job{Benchmark: "terasort", InputGB: 4, NumMaps: 4, NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Submit(Job{Benchmark: "terasort", InputGB: 4, NumMaps: 4, NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Controller().NumPolicies() != len(h1.Flows)+len(h2.Flows) {
		t.Errorf("policies = %d, want %d", p.Controller().NumPolicies(), len(h1.Flows)+len(h2.Flows))
	}
	if err := p.Complete(h1, -1, -1); err != nil {
		t.Fatal(err)
	}
	if p.Controller().NumPolicies() != len(h2.Flows) {
		t.Errorf("policies after h1 completion = %d", p.Controller().NumPolicies())
	}
}
