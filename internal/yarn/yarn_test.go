package yarn

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

func newRM(t *testing.T, per cluster.Resources) (*ResourceManager, *cluster.Cluster, *topology.Topology) {
	t.Helper()
	topo, err := topology.NewTree(2, 4, topology.LinkParams{Bandwidth: 2, SwitchCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, per)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewResourceManager(cl)
	if err != nil {
		t.Fatal(err)
	}
	return rm, cl, topo
}

func TestNewResourceManagerNil(t *testing.T) {
	if _, err := NewResourceManager(nil); err == nil {
		t.Error("nil cluster accepted")
	}
}

func TestRequestValidate(t *testing.T) {
	bad := []ResourceRequest{
		{ResourceName: AnyHost, NumContainers: 0},
		{ResourceName: AnyHost, NumContainers: -1},
		{ResourceName: "", NumContainers: 1},
		{ResourceName: AnyHost, NumContainers: 1, Capability: cluster.Resources{CPU: -1}},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
	good := ResourceRequest{ResourceName: AnyHost, NumContainers: 2, Capability: cluster.Resources{CPU: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

// pending counts the containers app still waits for.
func pending(rm *ResourceManager, app *Application) int {
	n := 0
	for _, p := range rm.apps[app.ID()].pending {
		n += p.remaining
	}
	return n
}

func TestAnyHostAllocation(t *testing.T) {
	rm, cl, _ := newRM(t, cluster.Resources{CPU: 2, Memory: 2048})
	app := rm.Submit("wordcount")
	if err := app.Ask(ResourceRequest{
		ResourceName: AnyHost, NumContainers: 5,
		Capability: cluster.Resources{CPU: 1, Memory: 512},
	}); err != nil {
		t.Fatal(err)
	}
	if got := pending(rm, app); got != 5 {
		t.Errorf("pending = %d, want 5", got)
	}
	if err := rm.RunUntilSatisfied(10); err != nil {
		t.Fatal(err)
	}
	allocs := app.TakeAllocations()
	if len(allocs) != 5 {
		t.Fatalf("allocations = %d, want 5", len(allocs))
	}
	for _, a := range allocs {
		if cl.Container(a.Container) == nil || cl.Container(a.Container).Server() != a.Node {
			t.Errorf("allocation %v inconsistent with cluster state", a)
		}
		if !a.Preferred {
			t.Errorf("AnyHost grant marked non-preferred: %+v", a)
		}
	}
	// Drained.
	if got := app.TakeAllocations(); got != nil {
		t.Errorf("second drain returned %v", got)
	}
}

func TestPreferredHostHonored(t *testing.T) {
	rm, cl, topo := newRM(t, cluster.Resources{CPU: 4, Memory: 4096})
	target := cl.Servers()[7]
	name := rm.HostName(target)
	if name == "" {
		t.Fatal("no host name")
	}
	app := rm.Submit("hit-job")
	if err := app.Ask(ResourceRequest{
		ResourceName: name, NumContainers: 2,
		Capability:    cluster.Resources{CPU: 1, Memory: 256},
		RelaxLocality: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Heartbeat a non-preferred node in a DIFFERENT rack first: with
	// RelaxLocality the RM may match it at "any" level, but the preferred
	// host must win when we heartbeat the full cluster in order... pin the
	// behavior: heartbeat only the preferred node.
	n, err := rm.Heartbeat(target)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("granted %d on preferred host, want 2", n)
	}
	for _, a := range app.TakeAllocations() {
		if a.Node != target || !a.Preferred {
			t.Errorf("allocation %+v, want preferred host %d", a, target)
		}
	}
	_ = topo
}

func TestRelaxLocalityFallsBack(t *testing.T) {
	rm, cl, _ := newRM(t, cluster.Resources{CPU: 1, Memory: 1024})
	target := cl.Servers()[0]
	// Fill the preferred host completely.
	blocker, err := cl.NewContainer(cluster.Resources{CPU: 1, Memory: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(blocker.ID, target); err != nil {
		t.Fatal(err)
	}
	app := rm.Submit("fallback")
	if err := app.Ask(ResourceRequest{
		ResourceName: rm.HostName(target), NumContainers: 1,
		Capability:    cluster.Resources{CPU: 1, Memory: 256},
		RelaxLocality: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := rm.RunUntilSatisfied(5); err != nil {
		t.Fatal(err)
	}
	allocs := app.TakeAllocations()
	if len(allocs) != 1 {
		t.Fatalf("allocations = %d", len(allocs))
	}
	if allocs[0].Node == target {
		t.Error("granted on a full host")
	}
	if allocs[0].Preferred {
		t.Error("fallback grant marked preferred")
	}
}

func TestStrictLocalityBlocks(t *testing.T) {
	rm, cl, _ := newRM(t, cluster.Resources{CPU: 1, Memory: 1024})
	target := cl.Servers()[0]
	blocker, _ := cl.NewContainer(cluster.Resources{CPU: 1, Memory: 1})
	if err := cl.Place(blocker.ID, target); err != nil {
		t.Fatal(err)
	}
	app := rm.Submit("strict")
	if err := app.Ask(ResourceRequest{
		ResourceName: rm.HostName(target), NumContainers: 1,
		Capability:    cluster.Resources{CPU: 1, Memory: 256},
		RelaxLocality: false,
	}); err != nil {
		t.Fatal(err)
	}
	err := rm.RunUntilSatisfied(3)
	if err == nil {
		t.Fatal("strict request satisfied despite full preferred host")
	}
	if !strings.Contains(err.Error(), "unsatisfiable") {
		t.Errorf("unexpected error: %v", err)
	}
	if got := pending(rm, app); got != 1 {
		t.Errorf("pending = %d, want 1", got)
	}
}

func TestRackRequests(t *testing.T) {
	rm, cl, topo := newRM(t, cluster.Resources{CPU: 2, Memory: 2048})
	server := cl.Servers()[5]
	rack := rm.RackOf(server)
	if rack == "" || rack[0] != '/' {
		t.Fatalf("rack name %q", rack)
	}
	app := rm.Submit("rack-job")
	if err := app.Ask(ResourceRequest{
		ResourceName: rack, NumContainers: 3,
		Capability: cluster.Resources{CPU: 1, Memory: 128},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rm.RunUntilSatisfied(5); err != nil {
		t.Fatal(err)
	}
	for _, a := range app.TakeAllocations() {
		if rm.RackOf(a.Node) != rack {
			t.Errorf("grant on %d outside rack %s", a.Node, rack)
		}
	}
	if rm.RackOf(topo.Switches()[0]) != "" {
		t.Error("rack of a switch should be empty")
	}
}

func TestPriorityOrdering(t *testing.T) {
	rm, _, _ := newRM(t, cluster.Resources{CPU: 1, Memory: 1024})
	app := rm.Submit("prio")
	// Low priority asked first, high priority second; high must win the
	// single slot per node... grant order within one heartbeat follows
	// priority.
	if err := app.Ask(ResourceRequest{ResourceName: AnyHost, NumContainers: 1, Priority: 5,
		Capability: cluster.Resources{CPU: 1, Memory: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := app.Ask(ResourceRequest{ResourceName: AnyHost, NumContainers: 1, Priority: 1,
		Capability: cluster.Resources{CPU: 1, Memory: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Heartbeat(rm.cl.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	allocs := app.TakeAllocations()
	if len(allocs) != 1 {
		t.Fatalf("allocs = %d, want 1 (node holds one container)", len(allocs))
	}
	if allocs[0].Priority != 1 {
		t.Errorf("granted priority %d first, want 1", allocs[0].Priority)
	}
}

func TestUnknownPreferredHostRejected(t *testing.T) {
	rm, _, _ := newRM(t, cluster.Resources{CPU: 1, Memory: 1})
	app := rm.Submit("bad")
	if err := app.Ask(ResourceRequest{ResourceName: "no-such-host", NumContainers: 1}); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestReleaseReturnsResources(t *testing.T) {
	rm, cl, _ := newRM(t, cluster.Resources{CPU: 1, Memory: 1024})
	app := rm.Submit("rel")
	if err := app.Ask(ResourceRequest{ResourceName: AnyHost, NumContainers: 1,
		Capability: cluster.Resources{CPU: 1, Memory: 512}}); err != nil {
		t.Fatal(err)
	}
	if err := rm.RunUntilSatisfied(3); err != nil {
		t.Fatal(err)
	}
	a := app.TakeAllocations()[0]
	used := cl.Capacity(a.Node).Sub(cl.Free(a.Node))
	if used.CPU != 1 {
		t.Fatalf("used = %v", used)
	}
	if err := app.Release(a.Container); err != nil {
		t.Fatal(err)
	}
	if got := cl.Capacity(a.Node).Sub(cl.Free(a.Node)); !got.IsZero() {
		t.Errorf("used after release = %v", got)
	}
	if err := app.Release(a.Container); err == nil {
		t.Error("double release accepted")
	}
	other := rm.Submit("other")
	if err := other.Release(a.Container); err == nil {
		t.Error("foreign release accepted")
	}
}

func TestHeartbeatErrors(t *testing.T) {
	rm, _, topo := newRM(t, cluster.Resources{CPU: 1, Memory: 1})
	if _, err := rm.Heartbeat(topo.Switches()[0]); err == nil {
		t.Error("heartbeat from switch accepted")
	}
	if _, err := rm.Heartbeat(topology.NodeID(-1)); err == nil {
		t.Error("heartbeat from invalid node accepted")
	}
}

func TestHostNodeLookup(t *testing.T) {
	rm, cl, _ := newRM(t, cluster.Resources{CPU: 1, Memory: 1})
	s := cl.Servers()[3]
	n, ok := rm.hostByName[rm.HostName(s)]
	if !ok || n != s {
		t.Errorf("host name round-trip = (%d, %v)", n, ok)
	}
	if _, ok := rm.hostByName["bogus"]; ok {
		t.Error("bogus host resolved")
	}
	if rm.HostName(topology.NodeID(-1)) != "" {
		t.Error("invalid node has a name")
	}
}

func TestFIFOAcrossApplications(t *testing.T) {
	rm, _, _ := newRM(t, cluster.Resources{CPU: 1, Memory: 1024})
	first := rm.Submit("first")
	second := rm.Submit("second")
	cap1 := cluster.Resources{CPU: 1, Memory: 1}
	if err := first.Ask(ResourceRequest{ResourceName: AnyHost, NumContainers: 1, Capability: cap1}); err != nil {
		t.Fatal(err)
	}
	if err := second.Ask(ResourceRequest{ResourceName: AnyHost, NumContainers: 1, Capability: cap1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Heartbeat(rm.cl.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	if len(first.TakeAllocations()) != 1 {
		t.Error("first app not served first")
	}
	if len(second.TakeAllocations()) != 0 {
		t.Error("second app served out of order")
	}
}
