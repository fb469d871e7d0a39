package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/topology"
)

// TestClosedFormAnswersHealthyRuns is the end-to-end guard on Algorithm
// 1's closed form: a legacy-loop Hit run on a healthy tree, Fat-Tree and
// VL2 has every route query answered by topology.StageRoute (PairRouteStats
// hits, no DP miss), while the same run on BCube, whose servers are
// multi-homed, runs the DP for every one. A guard that silently falls back
// to the DP moves no output bit — TestResultBitsPinned passes either way —
// so only this count shows it. The fabrics between them route flows at
// template lengths 1, 3 and 5.
func TestClosedFormAnswersHealthyRuns(t *testing.T) {
	p := topology.LinkParams{Bandwidth: 1, SwitchCapacity: 64}
	for _, tc := range []struct {
		name   string
		closed bool
		build  func() (*topology.Topology, error)
	}{
		{"tree", true, func() (*topology.Topology, error) { return topology.NewTree(3, 3, p) }},
		{"fattree", true, func() (*topology.Topology, error) { return topology.NewFatTree(4, p) }},
		{"vl2", true, func() (*topology.Topology, error) { return topology.NewVL2(4, 2, 2, 3, p) }},
		{"bcube", false, func() (*topology.Topology, error) { return topology.NewBCube(4, 1, p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(topo, cluster.Resources{CPU: 4, Memory: 8192}, &core.HitScheduler{}, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(genJobs(t, 4, 101)); err != nil {
				t.Fatal(err)
			}
			hits, misses := eng.Controller().Oracle().PairRouteStats()
			if tc.closed && (hits == 0 || misses != 0) {
				t.Errorf("%d closed-form answers and %d DP solves, want only closed-form answers", hits, misses)
			}
			if !tc.closed && (hits != 0 || misses == 0) {
				t.Errorf("%d closed-form answers and %d DP solves, want only DP solves", hits, misses)
			}
		})
	}
}
