package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Phase-isolation benchmarks: the joint loop's cost splits into Algorithm 1
// sweeps (policy optimization) and Algorithm 2 preference builds (the
// matrix behind stable matching). Benchmarking each phase alone makes a
// future regression attributable to a phase instead of the whole Schedule
// call.

// benchPhaseRequest builds a request on a depth-3 tree, mirrors Schedule's
// initialization (random placement + random installed policies), and
// returns it ready for single-phase runs.
func benchPhaseRequest(b *testing.B, fanout, maps, reduces int) (*scheduler.Request, []scheduler.Task) {
	b.Helper()
	topo, err := topology.NewTree(3, fanout, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
	if err != nil {
		b.Fatal(err)
	}
	ctl := controller.New(topo)
	job := &workload.Job{ID: 0, NumMaps: maps, NumReduces: reduces, InputGB: float64(maps)}
	job.Shuffle = make([][]float64, maps)
	for m := range job.Shuffle {
		job.Shuffle[m] = make([]float64, reduces)
		for r := range job.Shuffle[m] {
			job.Shuffle[m][r] = 0.5
		}
	}
	job.MapComputeSec = make([]float64, maps)
	job.ReduceComputeSec = make([]float64, reduces)
	req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job},
		cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	h := &HitScheduler{}
	movable := h.movableTasks(req)
	for _, t := range movable {
		if req.Cluster.Container(t.Container).Placed() {
			continue
		}
		cands := req.Cluster.Candidates(t.Container)
		if len(cands) == 0 {
			b.Fatalf("no feasible server for container %d", t.Container)
		}
		if err := req.Cluster.Place(t.Container, cands[req.Rand.Intn(len(cands))]); err != nil {
			b.Fatal(err)
		}
	}
	loc := req.Locator()
	for _, f := range req.Flows {
		p, err := req.Controller.RandomPolicy(f, loc, req.Rand)
		if err != nil {
			b.Fatal(err)
		}
		if err := req.Controller.Install(f, p); err != nil {
			b.Fatal(err)
		}
	}
	return req, movable
}

// BenchmarkPolicyOptimization measures one Algorithm-1 sweep over every
// flow (phase 1 of the joint loop). The first sweep pays for the DAG
// solves; later sweeps exercise the steady-state cost — feasibility scans,
// cost evaluation, and closed-form routes.
func BenchmarkPolicyOptimization(b *testing.B) {
	for _, size := range []struct{ fanout, maps, reduces int }{{4, 32, 16}, {6, 108, 54}} {
		b.Run(fmt.Sprintf("servers=%d", size.fanout*size.fanout*size.fanout), func(b *testing.B) {
			req, _ := benchPhaseRequest(b, size.fanout, size.maps, size.reduces)
			loc := req.Locator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range req.Flows {
					if _, _, _, err := req.Controller.OptimizeInstalledDetailed(f, loc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPreferenceMatrix measures one full preference build + stable
// matching for the reduce group (phase 2 of the joint loop). A fresh
// runState per iteration starts with no cached distance rows and a cold
// Matcher, so this tracks the whole cost of one group's build and match.
func BenchmarkPreferenceMatrix(b *testing.B) {
	for _, size := range []struct{ fanout, maps, reduces int }{{4, 32, 16}, {6, 108, 54}} {
		b.Run(fmt.Sprintf("servers=%d", size.fanout*size.fanout*size.fanout), func(b *testing.B) {
			req, movable := benchPhaseRequest(b, size.fanout, size.maps, size.reduces)
			h := &HitScheduler{}
			loc := req.Locator()
			var reduces []scheduler.Task
			for _, t := range movable {
				if t.Kind == workload.ReduceTask {
					reduces = append(reduces, t)
				}
			}
			h.sc.incident = make(map[cluster.ContainerID][]*flow.Flow, len(reduces))
			for _, t := range reduces {
				h.sc.incident[t.Container] = nil
			}
			flow.IncidentFlows(h.sc.incident, req.Flows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.assignGroup(req, reduces, loc, newRunState(0), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
