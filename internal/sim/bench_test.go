package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// benchJobs is the sim benchmarks' fixed workload: eight jobs of the
// default class mix with 4–16 GB of input and at most 16 maps each (the
// perfbench sim workloads' shape), drawn from seed 1.
func benchJobs(b *testing.B) []*workload.Job {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.MinInputGB, cfg.MaxInputGB, cfg.MaxMaps = 4, 16, 16
	g, err := workload.NewGenerator(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g.Workload(8)
}

// benchRun builds a fresh fabric and engine and runs jobs once.
func benchRun(b *testing.B, fabric func() (*topology.Topology, error), server cluster.Resources, jobs []*workload.Job, plan func(*topology.Topology) *faults.Plan) {
	b.Helper()
	topo, err := fabric()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(topo, server, &core.HitScheduler{}, Options{Seed: 1, Faults: plan(topo)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(jobs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimLegacyTestbed runs the legacy wave loop end to end (Hit
// placement, route snapshots, the fluid shuffle and the shared tail) on
// the §7.1 testbed tree: 64 hosts, bandwidth 0.08, switch capacity 48,
// 4:1 oversubscription, servers of 2 CPU / 8192 MB.
func BenchmarkSimLegacyTestbed(b *testing.B) {
	jobs := benchJobs(b)
	fabric := func() (*topology.Topology, error) {
		return topology.NewPaperTree(topology.LinkParams{Bandwidth: 0.08, SwitchCapacity: 48, Oversubscription: 4})
	}
	noFaults := func(*topology.Topology) *faults.Plan { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, fabric, cluster.Resources{CPU: 2, Memory: 8192}, jobs, noFaults)
	}
}

// BenchmarkSimFaultFatTree runs the fault wave loop on a k=8 fat-tree
// (servers of 4 CPU / 8192 MB) under a fixed crash-heavy timeline and a
// task model that fails, straggles and speculates.
func BenchmarkSimFaultFatTree(b *testing.B) {
	jobs := benchJobs(b)
	fabric := func() (*topology.Topology, error) {
		return topology.NewFatTree(8, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
	}
	crashes := func(topo *topology.Topology) *faults.Plan {
		return &faults.Plan{
			Events: faults.GenerateTimeline(rand.New(rand.NewSource(1)), topo, faults.Spec{
				Horizon: 80, Rate: 16, Severity: 0.6, MTTR: 10,
				SwitchCrashW: 2, SwitchDegradeW: 1, LinkDegradeW: 1, ServerCrashW: 2,
			}),
			Tasks: faults.TaskModel{FailureProb: 0.06, StragglerProb: 0.06, Speculation: true, Seed: 1},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, fabric, cluster.Resources{CPU: 4, Memory: 8192}, jobs, crashes)
	}
}
