package experiments

import (
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// cellBuilder prepares one independent simulation cell: the fabric, the
// workload and the seed for (scheduler name, repeat). Every cell owns its
// topology, cluster, controller and RNG, so cells run concurrently without
// sharing state; results are deterministic regardless of worker count.
type cellBuilder func(name string, rep int) (*topology.Topology, []*workload.Job, int64, error)

// runCells executes one simulation per (scheduler, repeat) cell on a worker
// pool and returns results indexed [scheduler][repeat].
func runCells(names []string, repeats int, build cellBuilder) ([][]*sim.Result, error) {
	type cell struct {
		name string
		si   int
		rep  int
	}
	var cells []cell
	for si, name := range names {
		for rep := 0; rep < repeats; rep++ {
			cells = append(cells, cell{name: name, si: si, rep: rep})
		}
	}
	flat, err := parallel.Map(len(cells), func(i int) (*sim.Result, error) {
		c := cells[i]
		topo, jobs, seed, err := build(c.name, c.rep)
		if err != nil {
			return nil, err
		}
		return runOnce(topo, c.name, jobs, seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(names))
	for i := range out {
		out[i] = make([]*sim.Result, repeats)
	}
	for i, c := range cells {
		out[c.si][c.rep] = flat[i]
	}
	return out, nil
}
