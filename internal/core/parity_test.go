package core_test

import (
	"math"
	"math/rand"
	"slices"
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

// TestHitIncrementalParity asserts the fast paths of the joint loop are
// invisible: with and without DisableIncremental, over multiple seeds and
// both capacity regimes (tight caps exercise the filtered-stage path,
// infinite caps the full-stage path), placements, routes, and total cost
// are bit-identical (costs compared by Float64bits). It runs on two
// fabrics: a depth-3 tree, whose rows come from the rack-bucket build and
// whose full-stage routes from the closed form, and BCube(4, 1), whose
// multi-homed servers take the per-server build and whose every route
// comes from the DP. The incremental run must also issue strictly fewer
// pair-route queries than the full run — clean flows skip the solver
// outright — otherwise this test would vacuously compare two full
// recomputes.
func TestHitIncrementalParity(t *testing.T) {
	type outcome struct {
		placements []topology.NodeID
		routes     [][]topology.NodeID
		cost       float64
		queries    uint64
	}

	run := func(t *testing.T, fabric func(topology.LinkParams) (*topology.Topology, error), incremental bool, seed int64, switchCap float64) outcome {
		t.Helper()
		topo, err := fabric(topology.LinkParams{
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

	fabrics := []struct {
		name  string
		build func(topology.LinkParams) (*topology.Topology, error)
	}{
		{"tree", func(p topology.LinkParams) (*topology.Topology, error) { return topology.NewTree(3, 3, p) }},
		{"bcube", func(p topology.LinkParams) (*topology.Topology, error) { return topology.NewBCube(4, 1, p) }},
	}
	for _, caps := range []struct {
		name string
		cap  float64
	}{
		{"tight-caps", 200},
		{"infinite-caps", topology.InfiniteCapacity},
	} {
		t.Run(caps.name, func(t *testing.T) {
			for _, fab := range fabrics {
				t.Run(fab.name, func(t *testing.T) {
					for seed := int64(1); seed <= 4; seed++ {
						inc := run(t, fab.build, true, seed, caps.cap)
						full := run(t, fab.build, false, seed, caps.cap)
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
		})
	}
}

// TestHitPreferenceBuildParity512 runs Hit-Scheduler on a 512-server tree
// and asserts that its placements and cost on the memoizing oracle match
// the run on the uncached one exactly: every row the preference build
// reads there comes from a cache, and a cached row that differed from a
// fresh one would move a placement.
func TestHitPreferenceBuildParity512(t *testing.T) {
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
			t.Fatalf("placement %d differs: cached %d, uncached %d", i, p1[i], p2[i])
		}
	}
	if c1 != c2 {
		t.Fatalf("total cost differs: %v vs %v", c1, c2)
	}
}

// TestHitSchedulerReuse schedules three waves with one HitScheduler value,
// whose preference-build scratch carries from call to call: a 512-server
// tree (rack-bucket build), BCube(4, 1) (per-server build) and a
// 27-server tree, in that order, so each later wave runs on scratch sized
// and left behind by a larger fabric or the other build. Each wave must
// equal a fresh value's run: placements, routes and cost to the bit.
func TestHitSchedulerReuse(t *testing.T) {
	type outcome struct {
		placements []topology.NodeID
		routes     [][]topology.NodeID
		cost       float64
	}
	wave := func(t *testing.T, build func() (*topology.Topology, error), h *core.HitScheduler) outcome {
		t.Helper()
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 4096})
		if err != nil {
			t.Fatal(err)
		}
		ctl := controller.New(topo)
		job := &workload.Job{ID: 0, NumMaps: 8, NumReduces: 4, InputGB: 8}
		job.Shuffle = make([][]float64, job.NumMaps)
		rng := rand.New(rand.NewSource(7))
		for i := range job.Shuffle {
			job.Shuffle[i] = make([]float64, job.NumReduces)
			for k := range job.Shuffle[i] {
				job.Shuffle[i][k] = rng.Float64() * 3
			}
		}
		job.MapComputeSec = make([]float64, job.NumMaps)
		job.ReduceComputeSec = make([]float64, job.NumReduces)
		req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job},
			cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Schedule(req); err != nil {
			t.Fatal(err)
		}
		var out outcome
		for _, task := range req.Tasks {
			out.placements = append(out.placements, cl.Container(task.Container).Server())
		}
		for _, f := range req.Flows {
			var route []topology.NodeID
			if p := ctl.Policy(f.ID); p != nil {
				route = append(route, p.List...)
			}
			out.routes = append(out.routes, route)
		}
		if out.cost, err = ctl.TotalCost(req.Flows, req.Locator()); err != nil {
			t.Fatal(err)
		}
		return out
	}

	params := topology.LinkParams{Bandwidth: 10, SwitchCapacity: topology.InfiniteCapacity}
	shared := &core.HitScheduler{}
	for _, tc := range []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"tree512", func() (*topology.Topology, error) { return topology.NewTree(3, 8, params) }},
		{"bcube", func() (*topology.Topology, error) { return topology.NewBCube(4, 1, params) }},
		{"tree27", func() (*topology.Topology, error) { return topology.NewTree(3, 3, params) }},
	} {
		got := wave(t, tc.build, shared)
		want := wave(t, tc.build, &core.HitScheduler{})
		if !slices.Equal(got.placements, want.placements) {
			t.Fatalf("%s: placements differ from a fresh scheduler's:\n got %v\nwant %v", tc.name, got.placements, want.placements)
		}
		if !slices.EqualFunc(got.routes, want.routes, slices.Equal[[]topology.NodeID]) {
			t.Fatalf("%s: routes differ from a fresh scheduler's", tc.name)
		}
		if math.Float64bits(got.cost) != math.Float64bits(want.cost) {
			t.Fatalf("%s: cost %v differs from a fresh scheduler's %v", tc.name, got.cost, want.cost)
		}
	}
}
