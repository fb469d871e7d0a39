package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netstate"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestSchedulerOracleParity asserts that memoization is invisible: under a
// fixed seed, every scheduler produces bit-identical placements, policies
// and total cost whether the controller runs on a caching oracle
// (netstate.New) or the uncached reference (netstate.NewUncached).
func TestSchedulerOracleParity(t *testing.T) {
	type outcome struct {
		placements []topology.NodeID
		routes     [][]topology.NodeID
		cost       float64
	}

	run := func(t *testing.T, sched scheduler.Scheduler, cached bool, seed int64) outcome {
		t.Helper()
		topo, err := topology.NewTree(3, 3, topology.LinkParams{
			Bandwidth: 10, Latency: 0.1, SwitchCapacity: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
		if err != nil {
			t.Fatal(err)
		}
		var o *netstate.Oracle
		if cached {
			o = netstate.New(topo)
		} else {
			o = netstate.NewUncached(topo)
		}
		ctl := controller.NewWithOracle(topo, o)

		job := &workload.Job{ID: 0, NumMaps: 6, NumReduces: 4, InputGB: 6}
		job.Shuffle = make([][]float64, job.NumMaps)
		rng := rand.New(rand.NewSource(seed))
		for i := range job.Shuffle {
			job.Shuffle[i] = make([]float64, job.NumReduces)
			for k := range job.Shuffle[i] {
				job.Shuffle[i][k] = rng.Float64() * 5
			}
		}
		job.MapComputeSec = make([]float64, job.NumMaps)
		job.ReduceComputeSec = make([]float64, job.NumReduces)

		req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job},
			cluster.Resources{CPU: 1, Memory: 1024}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Schedule(req); err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		var out outcome
		for _, task := range req.Tasks {
			out.placements = append(out.placements, cl.Container(task.Container).Server())
		}
		for _, f := range req.Flows {
			if p := ctl.Policy(f.ID); p != nil {
				route := append([]topology.NodeID{}, p.List...)
				out.routes = append(out.routes, route)
			} else {
				out.routes = append(out.routes, nil)
			}
		}
		c, err := ctl.TotalCost(req.Flows, req.Locator())
		if err != nil {
			t.Fatal(err)
		}
		out.cost = c
		return out
	}

	scheds := []scheduler.Scheduler{
		&core.HitScheduler{},
		scheduler.Capacity{},
		scheduler.PNA{},
		scheduler.CAM{},
		scheduler.Random{},
	}
	for _, sched := range scheds {
		t.Run(sched.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				with := run(t, sched, true, seed)
				without := run(t, sched, false, seed)
				if len(with.placements) != len(without.placements) {
					t.Fatalf("seed %d: placement count %d vs %d",
						seed, len(with.placements), len(without.placements))
				}
				for i := range with.placements {
					if with.placements[i] != without.placements[i] {
						t.Fatalf("seed %d: placement %d differs: cached %d, uncached %d",
							seed, i, with.placements[i], without.placements[i])
					}
				}
				for i := range with.routes {
					a, b := with.routes[i], without.routes[i]
					if len(a) != len(b) {
						t.Fatalf("seed %d: route %d length %d vs %d", seed, i, len(a), len(b))
					}
					for k := range a {
						if a[k] != b[k] {
							t.Fatalf("seed %d: route %d differs at hop %d: %v vs %v",
								seed, i, k, a, b)
						}
					}
				}
				if with.cost != without.cost {
					t.Fatalf("seed %d: total cost cached %v, uncached %v",
						seed, with.cost, without.cost)
				}
			}
		})
	}
}

// TestHitIncrementalParity asserts the dirty-set incremental joint loop is
// invisible: with and without DisableIncremental, over multiple seeds and
// both capacity regimes (tight caps exercise the filtered-stage path,
// infinite caps the full-stage path), placements, routes, and total cost
// are bit-identical (costs compared by Float64bits). The incremental run
// must also issue strictly fewer pair-route queries than the full run —
// clean flows skip the solver outright — otherwise this test would
// vacuously compare two full recomputes.
func TestHitIncrementalParity(t *testing.T) {
	type outcome struct {
		placements []topology.NodeID
		routes     [][]topology.NodeID
		cost       float64
		queries    uint64
	}

	run := func(t *testing.T, incremental bool, seed int64, switchCap float64) outcome {
		t.Helper()
		topo, err := topology.NewTree(3, 3, topology.LinkParams{
			Bandwidth: 10, Latency: 0.1, SwitchCapacity: switchCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
		if err != nil {
			t.Fatal(err)
		}
		o := netstate.New(topo)
		ctl := controller.NewWithOracle(topo, o)

		job := &workload.Job{ID: 0, NumMaps: 6, NumReduces: 4, InputGB: 6}
		job.Shuffle = make([][]float64, job.NumMaps)
		rng := rand.New(rand.NewSource(seed))
		for i := range job.Shuffle {
			job.Shuffle[i] = make([]float64, job.NumReduces)
			for k := range job.Shuffle[i] {
				job.Shuffle[i][k] = rng.Float64() * 5
			}
		}
		job.MapComputeSec = make([]float64, job.NumMaps)
		job.ReduceComputeSec = make([]float64, job.NumReduces)

		req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job},
			cluster.Resources{CPU: 1, Memory: 1024}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		h := &core.HitScheduler{DisableIncremental: !incremental}
		if err := h.Schedule(req); err != nil {
			t.Fatal(err)
		}
		var out outcome
		for _, task := range req.Tasks {
			out.placements = append(out.placements, cl.Container(task.Container).Server())
		}
		for _, f := range req.Flows {
			if p := ctl.Policy(f.ID); p != nil {
				out.routes = append(out.routes, append([]topology.NodeID{}, p.List...))
			} else {
				out.routes = append(out.routes, nil)
			}
		}
		c, err := ctl.TotalCost(req.Flows, req.Locator())
		if err != nil {
			t.Fatal(err)
		}
		out.cost = c
		hits, misses := o.PairRouteStats()
		out.queries = hits + misses
		return out
	}

	for _, caps := range []struct {
		name string
		cap  float64
	}{
		{"tight-caps", 200},
		{"infinite-caps", topology.InfiniteCapacity},
	} {
		t.Run(caps.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				inc := run(t, true, seed, caps.cap)
				full := run(t, false, seed, caps.cap)
				if len(inc.placements) != len(full.placements) {
					t.Fatalf("seed %d: placement count %d vs %d",
						seed, len(inc.placements), len(full.placements))
				}
				for i := range inc.placements {
					if inc.placements[i] != full.placements[i] {
						t.Fatalf("seed %d: placement %d differs: incremental %d, full %d",
							seed, i, inc.placements[i], full.placements[i])
					}
				}
				for i := range inc.routes {
					a, b := inc.routes[i], full.routes[i]
					if len(a) != len(b) {
						t.Fatalf("seed %d: route %d length %d vs %d", seed, i, len(a), len(b))
					}
					for k := range a {
						if a[k] != b[k] {
							t.Fatalf("seed %d: route %d differs at hop %d: %v vs %v",
								seed, i, k, a, b)
						}
					}
				}
				if math.Float64bits(inc.cost) != math.Float64bits(full.cost) {
					t.Fatalf("seed %d: total cost incremental %v (bits %x), full %v (bits %x)",
						seed, inc.cost, math.Float64bits(inc.cost),
						full.cost, math.Float64bits(full.cost))
				}
				if inc.queries >= full.queries {
					t.Fatalf("seed %d: incremental run issued %d pair-route queries, full run %d — dirty-set skipping never engaged",
						seed, inc.queries, full.queries)
				}
			}
		})
	}
}

// TestHitParallelPreferenceBuildParity runs Hit-Scheduler on a cluster large
// enough (512 servers) that the preference-matrix build fans out across
// containers, and asserts placements match the uncached (and therefore
// sequential-equivalent) run exactly. Under -race it also catches a worker
// that calls the oracle, which is not safe for concurrent use.
func TestHitParallelPreferenceBuildParity(t *testing.T) {
	if testing.Short() {
		t.Skip("512-server parity run skipped in -short mode")
	}
	run := func(cached bool) ([]topology.NodeID, float64) {
		topo, err := topology.NewTree(3, 8, topology.LinkParams{
			Bandwidth: 10, SwitchCapacity: topology.InfiniteCapacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 4096})
		if err != nil {
			t.Fatal(err)
		}
		var o *netstate.Oracle
		if cached {
			o = netstate.New(topo)
		} else {
			o = netstate.NewUncached(topo)
		}
		ctl := controller.NewWithOracle(topo, o)
		// 12 maps × 512 servers crosses the fan-out threshold.
		job := &workload.Job{ID: 0, NumMaps: 12, NumReduces: 6, InputGB: 12}
		job.Shuffle = make([][]float64, job.NumMaps)
		rng := rand.New(rand.NewSource(42))
		for i := range job.Shuffle {
			job.Shuffle[i] = make([]float64, job.NumReduces)
			for k := range job.Shuffle[i] {
				job.Shuffle[i][k] = rng.Float64() * 3
			}
		}
		job.MapComputeSec = make([]float64, job.NumMaps)
		job.ReduceComputeSec = make([]float64, job.NumReduces)
		req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job},
			cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		if err := (&core.HitScheduler{}).Schedule(req); err != nil {
			t.Fatal(err)
		}
		var placements []topology.NodeID
		for _, task := range req.Tasks {
			placements = append(placements, cl.Container(task.Container).Server())
		}
		cost, err := ctl.TotalCost(req.Flows, req.Locator())
		if err != nil {
			t.Fatal(err)
		}
		return placements, cost
	}
	p1, c1 := run(true)
	p2, c2 := run(false)
	if len(p1) != len(p2) {
		t.Fatalf("placement counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("placement %d differs: parallel/cached %d, uncached %d", i, p1[i], p2[i])
		}
	}
	if c1 != c2 {
		t.Fatalf("total cost differs: %v vs %v", c1, c2)
	}
}
