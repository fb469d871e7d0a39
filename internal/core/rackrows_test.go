package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// rackFabrics are the single-homed families the rack-bucket build serves.
var rackFabrics = []struct {
	name  string
	build func() (*topology.Topology, error)
}{
	{"tree", func() (*topology.Topology, error) {
		return topology.NewTree(3, 4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	}},
	{"fattree", func() (*topology.Topology, error) {
		return topology.NewFatTree(4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	}},
	{"vl2", func() (*topology.Topology, error) {
		return topology.NewVL2(4, 2, 2, 3, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	}},
	{"racktree", func() (*topology.Topology, error) {
		return topology.NewTreeWithRacks(3, 3, 7, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	}},
}

// randomClass draws a non-empty feasible set over the cluster's servers,
// with density varying per draw so both sparse and near-full racks occur.
func randomClass(rng *rand.Rand, rb *rackBuild, n int) *demandClass {
	cl := &demandClass{votes: make(map[topology.NodeID]int)}
	p := 0.2 + 0.8*rng.Float64()
	for si := 0; si < n; si++ {
		if rng.Float64() < p {
			cl.feas = append(cl.feas, si)
		}
	}
	if len(cl.feas) == 0 {
		cl.feas = []int{rng.Intn(n)}
	}
	rb.groupByRack(cl)
	return cl
}

// TestRackRowsMatchReference checks the rack-bucket build against the
// per-server definition on every single-homed family: for random feasible
// masks, peers inside and outside the feasible set (repeats included) and
// rates from a small set, so equal grades across racks are common, the
// emitted row is the prefix of sortDescFallback's ranking over grades
// summed from BFS distances of an uncached oracle, cut exactly where the
// limit says; and each rack-table vote is NearestByDist's answer.
func TestRackRowsMatchReference(t *testing.T) {
	for fi, fab := range rackFabrics {
		t.Run(fab.name, func(t *testing.T) {
			topo, err := fab.build()
			if err != nil {
				t.Fatal(err)
			}
			clu, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 4096})
			if err != nil {
				t.Fatal(err)
			}
			o, ref := netstate.New(topo), netstate.NewUncached(topo)
			rb := newRackBuild(clu, o.Racks(), newRunState(0))
			servers := clu.Servers()
			rng := rand.New(rand.NewSource(int64(100 + fi)))
			sc := new(assignScratch)
			rates := []float64{0.5, 1, 1, 1.5, 2, 0.25}
			for trial := 0; trial < 60; trial++ {
				cl := randomClass(rng, rb, len(servers))
				nf := 1 + rng.Intn(8)
				flows := make([]*flow.Flow, nf)
				peers := make([]topology.NodeID, nf)
				for k := range flows {
					flows[k] = &flow.Flow{Rate: rates[rng.Intn(len(rates))]}
					switch {
					case k > 0 && rng.Intn(4) == 0:
						peers[k] = peers[rng.Intn(k)]
					case rng.Intn(2) == 0:
						peers[k] = servers[cl.feas[rng.Intn(len(cl.feas))]]
					default:
						peers[k] = servers[rng.Intn(len(servers))]
					}
					rb.fetch(o, peers[k])
				}
				orig := rng.Intn(len(servers))

				cost := func(si int) float64 {
					var c float64
					for k, f := range flows {
						d := ref.DistRow(peers[k])[servers[si]]
						if d < 0 {
							continue
						}
						c += f.Rate * float64(d)
					}
					return c
				}
				cur := cost(orig)
				grades := make([]float64, len(cl.feas))
				for i, si := range cl.feas {
					grades[i] = cur - cost(si)
				}
				want := make([]int, len(cl.feas))
				sortDescFallback(grades, cl.feas, want)

				for _, limit := range []int{1, 2, 3, 7, maxRowLen, 0} {
					got, cut := rb.row(sc, cl, flows, peers, orig, limit)
					n := len(want)
					if limit > 0 && limit < n {
						n = limit
					}
					if !slices.Equal(got, want[:n]) {
						t.Fatalf("trial %d limit %d: row %v, reference prefix %v", trial, limit, got, want[:n])
					}
					if cut != (n < len(want)) {
						t.Fatalf("trial %d limit %d: cut=%v with %d of %d entries", trial, limit, cut, n, len(want))
					}
				}

				cands := make([]topology.NodeID, len(cl.feas))
				for i, si := range cl.feas {
					cands[i] = servers[si]
				}
				for _, ps := range peers {
					wantV := clu.ServerIndex(ref.NearestByDist(ps, cands))
					if got := rb.vote(cl, ps); got != wantV {
						t.Fatalf("trial %d: vote for peer %d = %d, NearestByDist %d", trial, ps, got, wantV)
					}
				}
			}
		})
	}
}

// TestRackBucketsMatchStableRank drives the bucket emission with injected
// grades — a few values including −0 and +0, shared across racks and
// peers — and checks it against sortDescFallback over the per-server
// expansion: every non-peer server carries its rack's grade, every
// feasible peer its own.
func TestRackBucketsMatchStableRank(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []float64{negZero, 0, 1, -1, 0.5, negZero, 0}
	for fi, fab := range rackFabrics {
		t.Run(fab.name, func(t *testing.T) {
			topo, err := fab.build()
			if err != nil {
				t.Fatal(err)
			}
			clu, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 4096})
			if err != nil {
				t.Fatal(err)
			}
			rb := newRackBuild(clu, netstate.New(topo).Racks(), newRunState(0))
			n := len(clu.Servers())
			rng := rand.New(rand.NewSource(int64(200 + fi)))
			sc := new(assignScratch)
			sc.peerSlot = make([]int32, n)
			for i := range sc.peerSlot {
				sc.peerSlot[i] = -1
			}
			for trial := 0; trial < 200; trial++ {
				cl := randomClass(rng, rb, n)
				rackGrade := make([]float64, rb.nRacks)
				for r := range rackGrade {
					rackGrade[r] = values[rng.Intn(len(values))]
				}
				peerGrade := make(map[int]float64)
				for k := rng.Intn(4); k > 0; k-- {
					si := rng.Intn(n)
					if _, dup := peerGrade[si]; !dup {
						peerGrade[si] = values[rng.Intn(len(values))]
						sc.peerSlot[si] = 0
					}
				}
				gradeOf := func(si int) float64 {
					if g, ok := peerGrade[si]; ok {
						return g
					}
					return rackGrade[rb.rack(int32(si))]
				}
				grades := make([]float64, len(cl.feas))
				for i, si := range cl.feas {
					grades[i] = gradeOf(si)
				}
				want := make([]int, len(cl.feas))
				sortDescFallback(grades, cl.feas, want)

				for _, limit := range []int{1, 2, 5, 0} {
					var items []rowItem
					for r := int32(0); int(r) < rb.nRacks; r++ {
						if len(cl.rackServers(r)) > 0 {
							items = append(items, rowItem{grade: rackGrade[r], rack: r})
						}
					}
					for si := 0; si < n; si++ {
						if g, ok := peerGrade[si]; ok && rb.feasibleAt(cl, int32(si)) {
							items = append(items, rowItem{grade: g, rack: -1, srv: int32(si)})
						}
					}
					rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
					got, _ := rb.emitRow(sc, cl, items, limit)
					m := len(want)
					if limit > 0 && limit < m {
						m = limit
					}
					if !slices.Equal(got, want[:m]) {
						t.Fatalf("trial %d limit %d: row %v, reference prefix %v", trial, limit, got, want[:m])
					}
				}
				for si := range peerGrade {
					sc.peerSlot[si] = -1
				}
			}
		})
	}
}

// shuffleJob is a job whose shuffle rates repeat across maps, so many
// containers tie and compete for the same servers.
func shuffleJob(rng *rand.Rand, maps, reduces int) *workload.Job {
	job := &workload.Job{ID: 0, NumMaps: maps, NumReduces: reduces, InputGB: float64(maps)}
	job.Shuffle = make([][]float64, maps)
	levels := []float64{0.5, 1, 2}
	for m := range job.Shuffle {
		job.Shuffle[m] = make([]float64, reduces)
		for r := range job.Shuffle[m] {
			job.Shuffle[m][r] = levels[rng.Intn(len(levels))]
		}
	}
	job.MapComputeSec = make([]float64, maps)
	job.ReduceComputeSec = make([]float64, reduces)
	return job
}

// waveOutcome schedules one wave of job on a fresh cluster over topo and
// returns every task's server and the Eq. 2 total cost.
func waveOutcome(t *testing.T, topo *topology.Topology, per cluster.Resources, job *workload.Job, seed int64, h *HitScheduler) ([]topology.NodeID, float64) {
	t.Helper()
	clu, err := cluster.New(topo, per)
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(topo)
	req, _, err := scheduler.NewJobRequest(clu, ctl, []*workload.Job{job},
		cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Schedule(req); err != nil {
		t.Fatal(err)
	}
	placements := make([]topology.NodeID, len(req.Tasks))
	for i, task := range req.Tasks {
		placements[i] = clu.Container(task.Container).Server()
	}
	cost, err := ctl.TotalCost(req.Flows, req.Locator())
	if err != nil {
		t.Fatal(err)
	}
	return placements, cost
}

func assertSameWave(t *testing.T, what string, gotP, wantP []topology.NodeID, got, want float64) {
	t.Helper()
	if !slices.Equal(gotP, wantP) {
		t.Fatalf("%s: placements %v, DisableIncremental %v", what, gotP, wantP)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: total cost %v (bits %x), DisableIncremental %v (bits %x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestRackRowCutParity forces cut rows and the full-row rebuild with row
// limits of 1, 2 and 3 on servers of one or two slots, and checks every
// wave against the DisableIncremental reference: identical placements and
// a Float64bits-equal total cost. The rebuild must actually run, or the
// test would only compare uncut rows.
func TestRackRowCutParity(t *testing.T) {
	rebuilt := 0
	for fi, fab := range rackFabrics {
		topo, err := fab.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, cpu := range []int{1, 2} {
			per := cluster.Resources{CPU: cpu, Memory: 4096}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*10 + int64(fi)))
				job := shuffleJob(rng, 6+rng.Intn(6), 3+rng.Intn(4))
				wantP, want := waveOutcome(t, topo, per, job, seed, &HitScheduler{DisableIncremental: true})
				for _, limit := range []int{1, 2, 3} {
					h := &HitScheduler{rowCap: limit, onRebuild: func(int) { rebuilt++ }}
					gotP, got := waveOutcome(t, topo, per, job, seed, h)
					assertSameWave(t, fab.name, gotP, wantP, got, want)
				}
			}
		}
	}
	if rebuilt == 0 {
		t.Fatal("no cut proposer ever ran off its row; the rebuild path went untested")
	}
}

// TestRackRowWave10k runs one initial wave on the 10,000-server rack tree,
// where every proposer row is cut at maxRowLen, against the
// DisableIncremental reference.
func TestRackRowWave10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-server wave skipped in -short mode")
	}
	topo, err := topology.NewTreeWithRacks(3, 10, 100, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	per := cluster.Resources{CPU: 2, Memory: 8192}
	job := shuffleJob(rand.New(rand.NewSource(9)), 24, 12)
	wantP, want := waveOutcome(t, topo, per, job, 9, &HitScheduler{DisableIncremental: true})
	gotP, got := waveOutcome(t, topo, per, job, 9, &HitScheduler{})
	assertSameWave(t, "rack10k", gotP, wantP, got, want)
}
