package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

func chaosTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewFatTree(4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func chaosJobs(t *testing.T, n int, seed int64) []*workload.Job {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.MinInputGB = 2
	cfg.MaxInputGB = 5
	cfg.MaxMaps = 6
	g, err := workload.NewGenerator(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g.Workload(n)
}

// resultFingerprint flattens everything observable about a run into exact
// bits — any nondeterminism shows up as a mismatch.
func resultFingerprint(res *Result) []uint64 {
	var fp []uint64
	add := func(f float64) { fp = append(fp, math.Float64bits(f)) }
	addInt := func(n int) { fp = append(fp, uint64(int64(n))) }
	add(res.JCT.Sum())
	addInt(res.JCT.N())
	add(res.TotalTrafficCost)
	add(res.TotalDelayCost)
	add(res.AvgRouteHops)
	add(res.AvgShuffleDelayT)
	add(res.AvgFlowTransferTime)
	add(res.ShuffleMakespan)
	add(res.ShuffleThroughput)
	addInt(res.NumFlows)
	for _, js := range res.Jobs {
		addInt(js.JobID)
		add(js.Arrival)
		add(js.Completion)
		add(js.TrafficCost)
		add(js.DelayCost)
		add(js.RemoteMapGB)
		add(js.ShuffleBytes)
		addInt(js.MapWaves)
		if js.Failed {
			addInt(1)
		} else {
			addInt(0)
		}
		for _, m := range js.MapTimes {
			add(m)
		}
		for _, r := range js.ReduceTimes {
			add(r)
		}
	}
	if rep := res.Report; rep != nil {
		addInt(rep.Events)
		addInt(rep.Evictions)
		addInt(rep.TaskFailures)
		addInt(rep.Retries)
		add(rep.RetryDelaySum)
		addInt(rep.FailedTasks)
		addInt(rep.SpeculativeLaunched)
		addInt(rep.SpeculativeWins)
		addInt(rep.ReroutedFlows)
		addInt(rep.DeferredPlacements)
		add(rep.RecoveryLatencySum)
		addInt(rep.ReactedFaults)
		for _, id := range rep.DroppedFlows {
			addInt(int(id))
		}
		for _, j := range rep.FailedJobs {
			addInt(j)
		}
	}
	return fp
}

// TestChaosFaultyRunsBitIdenticalAcrossReruns is the chaos harness: 4 seeds
// x 3 randomized fault schedules, every run repeated from scratch and
// required to replay bit-for-bit. The run itself enforces the invariants
// (zero overloaded switches after reaction, no policy through a dead
// switch) and errors out on violation, so a passing run is the proof.
func TestChaosFaultyRunsBitIdenticalAcrossReruns(t *testing.T) {
	specs := []struct {
		name string
		spec faults.Spec
	}{
		{"switch-heavy", faults.Spec{Horizon: 50, Rate: 16, Severity: 0.6, MTTR: 8, SwitchCrashW: 3, SwitchDegradeW: 1}},
		{"link-heavy", faults.Spec{Horizon: 50, Rate: 16, Severity: 0.8, MTTR: 8, LinkDegradeW: 3, SwitchDegradeW: 1}},
		{"server-heavy", faults.Spec{Horizon: 50, Rate: 12, Severity: 0.5, MTTR: 6, ServerCrashW: 3, SwitchCrashW: 1}},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3, 4} {
				jobs := chaosJobs(t, 2, seed)
				runOnce := func() (*Result, *faults.Plan) {
					topo := chaosTopo(t)
					plan := &faults.Plan{
						Events: faults.GenerateTimeline(rand.New(rand.NewSource(seed)), topo, sp.spec),
						Tasks: faults.TaskModel{
							FailureProb:   0.15,
							StragglerProb: 0.15,
							Speculation:   true,
							Seed:          uint64(seed),
						},
					}
					eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, &core.HitScheduler{}, Options{Seed: seed, Faults: plan})
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.Run(jobs)
					if err != nil {
						t.Fatalf("seed %d: faulty run: %v", seed, err)
					}
					return res, plan
				}
				res, plan := runOnce()
				again, _ := runOnce()
				if !reflect.DeepEqual(resultFingerprint(res), resultFingerprint(again)) {
					t.Errorf("seed %d: rerun fingerprints diverge", seed)
				}

				// Accounting: every job completed or failed, every event applied.
				rep := res.Report
				if rep == nil {
					t.Fatalf("seed %d: fault run returned no report", seed)
				}
				if rep.Events != len(plan.Events) {
					t.Errorf("seed %d: applied %d of %d events", seed, rep.Events, len(plan.Events))
				}
				if len(res.Jobs) != len(jobs) {
					t.Fatalf("seed %d: %d job stats for %d jobs", seed, len(res.Jobs), len(jobs))
				}
				failed := 0
				for _, js := range res.Jobs {
					if js.Failed {
						failed++
						found := false
						for _, id := range rep.FailedJobs {
							if id == js.JobID {
								found = true
							}
						}
						if !found {
							t.Errorf("seed %d: job %d flagged failed but missing from FailedJobs", seed, js.JobID)
						}
					}
				}
				if len(rep.FailedJobs) != failed {
					t.Errorf("seed %d: FailedJobs lists %d, stats flag %d", seed, len(rep.FailedJobs), failed)
				}
				if res.JCT.N() != len(jobs)-failed {
					t.Errorf("seed %d: JCT has %d samples, want %d", seed, res.JCT.N(), len(jobs)-failed)
				}
			}
		})
	}
}

// TestChaosEmptyPlanMatchesLegacy pins the zero-fault contract: an empty
// plan takes the legacy path and must be indistinguishable — to the bit —
// from not configuring faults at all.
func TestChaosEmptyPlanMatchesLegacy(t *testing.T) {
	jobs := chaosJobs(t, 3, 11)
	run := func(plan *faults.Plan) *Result {
		eng, err := New(chaosTopo(t), cluster.Resources{CPU: 4, Memory: 8192}, &core.HitScheduler{}, Options{Seed: 11, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy := run(nil)
	empty := run(&faults.Plan{})
	if empty.Report != nil {
		t.Error("empty plan took the fault path")
	}
	if !reflect.DeepEqual(resultFingerprint(legacy), resultFingerprint(empty)) {
		t.Error("empty fault plan changed the run")
	}
}

// TestChaosScriptedCrashRecovers drives a hand-written crash/recover pair
// through the fault path and checks the fabric comes back pristine and the
// engine stays usable for a follow-up run.
func TestChaosScriptedCrashRecovers(t *testing.T) {
	topo := chaosTopo(t)
	var mid topology.NodeID = topology.None
	for _, w := range topo.Switches() {
		if topo.Node(w).Tier == 1 {
			mid = w
			break
		}
	}
	if mid == topology.None {
		t.Fatal("no aggregation switch in fat-tree")
	}
	plan := &faults.Plan{Events: []faults.Event{
		{Time: 0, Kind: faults.SwitchCrash, Node: mid, Seq: 0},
		{Time: 6, Kind: faults.SwitchRecover, Node: mid, Seq: 1},
	}}
	eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, scheduler.Capacity{}, Options{Seed: 5, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	jobs := chaosJobs(t, 2, 5)
	res, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("scripted crash run: %v", err)
	}
	if res.Report == nil || res.Report.Events != 2 {
		t.Fatalf("expected both events applied, report = %+v", res.Report)
	}
	if !topo.Alive(mid) || topo.Node(mid).Capacity != 64 {
		t.Errorf("switch %d not restored: alive=%v cap=%v", mid, topo.Alive(mid), topo.Node(mid).Capacity)
	}
	// The engine must be reusable afterwards: the fault path released every
	// container and restored every nominal.
	if _, err := eng.Run(jobs); err != nil {
		t.Fatalf("rerun after faulty run: %v", err)
	}
}
