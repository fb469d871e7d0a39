package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/procstat"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scalability benchmarks back the paper's complexity claims: Algorithm 2's
// stable matching runs in O(M×N) (servers × containers) and the
// subsequent-wave greedy pass in O(n²). Each benchmark scales the cluster
// and reports scheduling wall time via the standard ns/op metric.

// benchJob builds a uniform job sized to the cluster.
func benchJob(maps, reduces int) *workload.Job {
	j := &workload.Job{ID: 0, NumMaps: maps, NumReduces: reduces, InputGB: float64(maps)}
	j.Shuffle = make([][]float64, maps)
	for m := range j.Shuffle {
		j.Shuffle[m] = make([]float64, reduces)
		for r := range j.Shuffle[m] {
			j.Shuffle[m][r] = 0.5
		}
	}
	j.MapComputeSec = make([]float64, maps)
	j.ReduceComputeSec = make([]float64, reduces)
	return j
}

// benchOps times s.Schedule on requests from newReq, which builds the
// same instance every call. One untimed Schedule first sizes the
// scheduler's reusable scratch, so every timed op does the same work and
// allocs/op is one op's count, whatever b.N is. It returns the last
// request.
func benchOps(b *testing.B, s scheduler.Scheduler, newReq func() *scheduler.Request) *scheduler.Request {
	b.Helper()
	b.ReportAllocs()
	b.StopTimer()
	if err := s.Schedule(newReq()); err != nil {
		b.Fatal(err)
	}
	var req *scheduler.Request
	for i := 0; i < b.N; i++ {
		req = newReq()
		b.StartTimer()
		if err := s.Schedule(req); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
	return req
}

// newBenchRequest builds one benchmark instance: job on a fresh cluster
// and controller over build's fabric, with the random start drawn from a
// fixed seed.
func newBenchRequest(b *testing.B, build func() (*topology.Topology, error), job *workload.Job) (*scheduler.Request, []scheduler.JobTasks) {
	b.Helper()
	topo, err := build()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
	if err != nil {
		b.Fatal(err)
	}
	req, jt, err := scheduler.NewJobRequest(cl, controller.New(topo), []*workload.Job{job},
		cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(0)))
	if err != nil {
		b.Fatal(err)
	}
	return req, jt
}

func benchSchedule(b *testing.B, s scheduler.Scheduler, build func() (*topology.Topology, error), maps, reduces int) {
	b.Helper()
	req := benchOps(b, s, func() *scheduler.Request {
		req, _ := newBenchRequest(b, build, benchJob(maps, reduces))
		return req
	})
	// Footprint next to wall-clock: the oracle's cache census from the last
	// iteration (O(V) in structural mode) and the process peak RSS.
	ms := req.Controller.Oracle().MemoryStats()
	b.ReportMetric(float64(ms.ApproxBytes)/1e6, "oracle-MB")
	if rss, ok := procstat.PeakRSSBytes(); ok {
		b.ReportMetric(float64(rss)/1e6, "peakRSS-MB")
	}
}

// treeBuilder fixes NewTree's depth/fanout into a benchSchedule topology
// factory.
func treeBuilder(depth, fanout int) func() (*topology.Topology, error) {
	return func() (*topology.Topology, error) {
		return topology.NewTree(depth, fanout, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	}
}

// BenchmarkHitScalability scales the cluster along two regimes:
//
//   - tree fanout 2/4/6 → 8/64/216 servers with task counts proportional to
//     servers (the paper's sweep, also the seed's);
//   - large rack-tree fabrics at 1024 (4-ary switch tree, 64 servers per
//     rack), 4096 (8-ary, 64 per rack) and 10000 servers (10-ary, 100 per
//     rack) with a fixed job (96 maps, 48 reduces — 4608 shuffle flows),
//     sized so a wave exercises the structural O(1) oracle and the dense
//     preference build rather than drowning in task count.
func BenchmarkHitScalability(b *testing.B) {
	for _, fanout := range []int{2, 4, 6} {
		servers := fanout * fanout * fanout
		maps := servers / 2
		reduces := servers / 4
		if reduces < 1 {
			reduces = 1
		}
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			benchSchedule(b, &core.HitScheduler{}, treeBuilder(3, fanout), maps, reduces)
		})
	}
	b.Run("servers=1024", func(b *testing.B) {
		benchSchedule(b, &core.HitScheduler{}, func() (*topology.Topology, error) {
			return topology.NewTreeWithRacks(3, 4, 64, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
		}, 96, 48)
	})
	b.Run("servers=4096", func(b *testing.B) {
		benchSchedule(b, &core.HitScheduler{}, func() (*topology.Topology, error) {
			return topology.NewTreeWithRacks(3, 8, 64, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
		}, 96, 48)
	})
	b.Run("servers=10000", func(b *testing.B) {
		benchSchedule(b, &core.HitScheduler{}, func() (*topology.Topology, error) {
			return topology.NewTreeWithRacks(3, 10, 100, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
		}, 96, 48)
	})
}

// BenchmarkCapacityScalability is the baseline's cost for the same sweep.
func BenchmarkCapacityScalability(b *testing.B) {
	for _, fanout := range []int{2, 4, 6} {
		servers := fanout * fanout * fanout
		maps := servers / 2
		reduces := servers / 4
		if reduces < 1 {
			reduces = 1
		}
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			benchSchedule(b, scheduler.Capacity{}, treeBuilder(3, fanout), maps, reduces)
		})
	}
}

// BenchmarkSubsequentWaveScalability measures §5.3.2's greedy map placement
// with reduces fixed (the O(n²) path).
func BenchmarkSubsequentWaveScalability(b *testing.B) {
	for _, fanout := range []int{2, 4, 6} {
		servers := fanout * fanout * fanout
		maps := servers / 2
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			build := treeBuilder(3, fanout)
			benchOps(b, &core.HitScheduler{}, func() *scheduler.Request {
				req, jt := newBenchRequest(b, build, benchJob(maps, servers/4+1))
				// Fix every reduce on a server, making this a pure
				// subsequent-wave request.
				srv := req.Cluster.Servers()
				for ri, c := range jt[0].Reduces {
					if err := req.Cluster.Place(c, srv[ri%len(srv)]); err != nil {
						b.Fatal(err)
					}
					req.Fixed[c] = true
				}
				return req
			})
		})
	}
}
