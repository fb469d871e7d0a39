package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/metrics"
	"repro/internal/reference"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestAccountingMatchesRecompute runs Hit on each evaluated architecture
// with finite switch capacity and checks the incremental accounting
// against a from-scratch recomputation from placements and installed
// policies alone: Controller.TotalCost and every switch's Load within
// metrics.ApproxTolerance of reference.Cost and reference.Loads, and every
// server's allocation exactly equal to reference.Used.
func TestAccountingMatchesRecompute(t *testing.T) {
	for _, arch := range topology.ArchitectureNames() {
		t.Run(arch, func(t *testing.T) {
			topo, err := topology.NewArchitecture(arch, 16, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 48})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
			if err != nil {
				t.Fatal(err)
			}
			ctl := controller.New(topo)
			req, _ := buildRequest(t, cl, ctl, []*workload.Job{uniformJob(t, 0, 6, 3, 2), uniformJob(t, 1, 4, 2, 1)}, 5)
			if err := (&HitScheduler{}).Schedule(req); err != nil {
				t.Fatal(err)
			}
			checkScheduled(t, req)

			loc := req.Locator()
			got, err := ctl.TotalCost(req.Flows, loc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := reference.Cost(topo, req.Flows, ctl.Policies(), loc)
			if err != nil {
				t.Fatal(err)
			}
			if !metrics.ApproxEqual(got, want) {
				t.Errorf("TotalCost %v, recomputed %v", got, want)
			}
			loads := reference.Loads(topo, req.Flows, ctl.Policies())
			loaded := 0
			for _, w := range topo.Switches() {
				if !metrics.ApproxEqual(ctl.Load(w), loads[w]) {
					t.Errorf("switch %d: load %v, recomputed %v", w, ctl.Load(w), loads[w])
				}
				if loads[w] > 0 {
					loaded++
				}
			}
			if loaded == 0 {
				t.Fatal("no switch carries load; the instance checks nothing")
			}
			used := reference.Used(cl)
			for _, s := range cl.Servers() {
				if got := cl.Capacity(s).Sub(cl.Free(s)); got != used[s] {
					t.Errorf("server %d: allocation %v, recomputed %v", s, got, used[s])
				}
			}
		})
	}
}
