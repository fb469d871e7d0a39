package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func newTestCluster(t *testing.T, per Resources) *Cluster {
	t.Helper()
	topo, err := topology.NewTree(2, 2, topology.LinkParams{})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	c, err := New(topo, per)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Resources{CPU: 1}); err == nil {
		t.Error("nil topology accepted")
	}
	topo, _ := topology.NewTree(1, 2, topology.LinkParams{})
	if _, err := New(topo, Resources{CPU: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 4, Memory: 1024}
	b := Resources{CPU: 1, Memory: 256}
	if got := a.Add(b); got != (Resources{CPU: 5, Memory: 1280}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Resources{CPU: 3, Memory: 768}) {
		t.Errorf("Sub = %v", got)
	}
	if !b.Fits(b, a) {
		t.Error("Fits(1+1 <= 4) = false")
	}
	if a.Fits(b, a) {
		t.Error("Fits(4+1 <= 4) = true")
	}
	if !(Resources{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
	if a.String() != "4c/1024m" {
		t.Errorf("String = %q", a.String())
	}
}

func TestPlaceUnplaceLifecycle(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 2, Memory: 2048})
	srv := c.Servers()
	ct, err := c.NewContainer(Resources{CPU: 1, Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if ct.Placed() {
		t.Error("new container already placed")
	}
	if err := c.Place(ct.ID, srv[0]); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if !ct.Placed() || ct.Server() != srv[0] {
		t.Errorf("container on %d, want %d", ct.Server(), srv[0])
	}
	if got := c.Used(srv[0]); got != ct.Demand {
		t.Errorf("Used = %v, want %v", got, ct.Demand)
	}
	// Re-placing on the same server is a no-op.
	if err := c.Place(ct.ID, srv[0]); err != nil {
		t.Errorf("idempotent Place: %v", err)
	}
	if got := c.Used(srv[0]); got != ct.Demand {
		t.Errorf("Used after idempotent place = %v, want %v", got, ct.Demand)
	}
	// Moving frees the old server.
	if err := c.Place(ct.ID, srv[1]); err != nil {
		t.Fatalf("move: %v", err)
	}
	if got := c.Used(srv[0]); !got.IsZero() {
		t.Errorf("old server still used: %v", got)
	}
	if err := c.Unplace(ct.ID); err != nil {
		t.Fatal(err)
	}
	if ct.Placed() {
		t.Error("still placed after Unplace")
	}
	if err := c.Unplace(ct.ID); err != nil {
		t.Errorf("double Unplace: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPlaceRejectsOverCapacity(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 1, Memory: 1000})
	srv := c.Servers()
	a, _ := c.NewContainer(Resources{CPU: 1, Memory: 500})
	b, _ := c.NewContainer(Resources{CPU: 1, Memory: 500})
	if err := c.Place(a.ID, srv[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(b.ID, srv[0]); err == nil {
		t.Error("over-capacity placement accepted")
	}
	if !c.CanHost(srv[1], b.ID) {
		t.Error("CanHost(empty server) = false")
	}
	if c.CanHost(srv[0], b.ID) {
		t.Error("CanHost(full server) = true")
	}
	// A container already on the server can always "stay".
	if !c.CanHost(srv[0], a.ID) {
		t.Error("CanHost(own server) = false")
	}
}

func TestPlaceErrors(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 1, Memory: 100})
	srv := c.Servers()
	if err := c.Place(ContainerID(99), srv[0]); err == nil {
		t.Error("unknown container accepted")
	}
	ct, _ := c.NewContainer(Resources{CPU: 1})
	if err := c.Place(ct.ID, topology.NodeID(0)); err == nil {
		// Node 0 in a tree is a switch, not a server.
		t.Error("placement on a switch accepted")
	}
	if err := c.Unplace(ContainerID(99)); err == nil {
		t.Error("unknown container Unplace accepted")
	}
	if _, err := c.NewContainer(Resources{CPU: -1}); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestCandidates(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 1, Memory: 100})
	srv := c.Servers()
	big, _ := c.NewContainer(Resources{CPU: 1, Memory: 100})
	if got := c.Candidates(big.ID); len(got) != len(srv) {
		t.Errorf("candidates = %d, want all %d servers", len(got), len(srv))
	}
	// Fill server 0 with another container; candidates shrink.
	other, _ := c.NewContainer(Resources{CPU: 1, Memory: 100})
	if err := c.Place(other.ID, srv[0]); err != nil {
		t.Fatal(err)
	}
	got := c.Candidates(big.ID)
	if len(got) != len(srv)-1 {
		t.Errorf("candidates after fill = %d, want %d", len(got), len(srv)-1)
	}
	for _, s := range got {
		if s == srv[0] {
			t.Error("full server still a candidate")
		}
	}
	if c.Candidates(ContainerID(50)) != nil {
		t.Error("candidates for unknown container")
	}
}

func TestSetServerCapacity(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 4, Memory: 4000})
	srv := c.Servers()
	ct, _ := c.NewContainer(Resources{CPU: 2, Memory: 2000})
	if err := c.Place(ct.ID, srv[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.SetServerCapacity(srv[0], Resources{CPU: 1, Memory: 100}); err == nil {
		t.Error("shrinking below usage accepted")
	}
	if err := c.SetServerCapacity(srv[0], Resources{CPU: 2, Memory: 2000}); err != nil {
		t.Errorf("exact shrink rejected: %v", err)
	}
	if err := c.SetServerCapacity(topology.NodeID(0), Resources{}); err == nil {
		t.Error("unknown server accepted")
	}
}

func TestContainersOnSorted(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 8, Memory: 8000})
	srv := c.Servers()
	var ids []ContainerID
	for i := 0; i < 5; i++ {
		ct, _ := c.NewContainer(Resources{CPU: 1, Memory: 1})
		ids = append(ids, ct.ID)
		if err := c.Place(ct.ID, srv[0]); err != nil {
			t.Fatal(err)
		}
	}
	got := c.ContainersOn(srv[0])
	if len(got) != 5 {
		t.Fatalf("ContainersOn = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("not sorted: %v", got)
		}
	}
	if c.ContainersOn(topology.NodeID(0)) != nil {
		t.Error("ContainersOn(switch) non-nil")
	}
}

func TestTotalFreeSlots(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 2, Memory: 2000}) // 4 servers
	d := Resources{CPU: 1, Memory: 1000}
	if got := c.TotalFreeSlots(d); got != 8 {
		t.Errorf("TotalFreeSlots = %d, want 8", got)
	}
	ct, _ := c.NewContainer(d)
	if err := c.Place(ct.ID, c.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFreeSlots(d); got != 7 {
		t.Errorf("TotalFreeSlots after place = %d, want 7", got)
	}
	if got := c.TotalFreeSlots(Resources{}); got != 0 {
		t.Errorf("TotalFreeSlots(zero) = %d, want 0", got)
	}
	// Memory-only demand ignores the CPU dimension: srv0 has 1000 MB free
	// (2 slots), the other three have 2000 MB (4 slots each).
	if got := c.TotalFreeSlots(Resources{Memory: 500}); got != 14 {
		t.Errorf("TotalFreeSlots(mem-only) = %d, want 14", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 2, Memory: 2000})
	srv := c.Servers()
	a, _ := c.NewContainer(Resources{CPU: 1, Memory: 500})
	b, _ := c.NewContainer(Resources{CPU: 1, Memory: 500})
	if err := c.Place(a.ID, srv[0]); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if err := c.Place(a.ID, srv[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(b.ID, srv[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if a.Server() != srv[0] {
		t.Errorf("a on %d after restore, want %d", a.Server(), srv[0])
	}
	if b.Placed() {
		t.Error("b placed after restore to unplaced snapshot")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestQuickRandomPlacementInvariants(t *testing.T) {
	topo, err := topology.NewTree(3, 3, topology.LinkParams{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(topo, Resources{CPU: 3, Memory: 3000})
		if err != nil {
			return false
		}
		var ids []ContainerID
		for i := 0; i < 10; i++ {
			ct, err := c.NewContainer(Resources{CPU: 1 + rng.Intn(2), Memory: 500 + rng.Intn(1500)})
			if err != nil {
				return false
			}
			ids = append(ids, ct.ID)
		}
		srv := c.Servers()
		for op := 0; op < int(nOps); op++ {
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(4) == 0 {
				if c.Unplace(id) != nil {
					return false
				}
			} else {
				s := srv[rng.Intn(len(srv))]
				// Place may legitimately fail when full; error text only.
				_ = c.Place(id, s)
			}
			if c.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestServerIndex(t *testing.T) {
	c := newTestCluster(t, Resources{CPU: 1, Memory: 1})
	ct, err := c.NewContainer(Resources{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Servers() {
		if got := c.ServerIndex(s); got != i {
			t.Errorf("ServerIndex(%d) = %d, want %d", s, got, i)
		}
	}
	for _, x := range append(c.Topology().Switches(), topology.None, topology.NodeID(c.Topology().NumNodes())) {
		if got := c.ServerIndex(x); got != -1 {
			t.Errorf("ServerIndex(%d) = %d for a non-server, want -1", x, got)
		}
		if c.CanHost(x, ct.ID) {
			t.Errorf("CanHost(%d) true for a non-server", x)
		}
	}
}
