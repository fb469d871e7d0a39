package flow

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// BuildOptions tunes flow construction from a job's shuffle matrix.
type BuildOptions struct {
	// MinSizeGB drops negligible matrix cells (no flow is created below it).
	MinSizeGB float64
	// RatePerGB converts flow size to the rate used against switch
	// capacities (f.rate = size * RatePerGB). Defaults to 1 when zero.
	RatePerGB float64
}

// BuildJobFlows creates one Flow per non-trivial cell of the job's shuffle
// matrix. mapContainers[m] must host map task m and reduceContainers[r]
// reduce task r. IDs are assigned sequentially starting at firstID.
func BuildJobFlows(job *workload.Job, mapContainers, reduceContainers []cluster.ContainerID, firstID ID, opts BuildOptions) ([]*Flow, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if len(mapContainers) != job.NumMaps {
		return nil, fmt.Errorf("flow: %d map containers for %d map tasks", len(mapContainers), job.NumMaps)
	}
	if len(reduceContainers) != job.NumReduces {
		return nil, fmt.Errorf("flow: %d reduce containers for %d reduce tasks", len(reduceContainers), job.NumReduces)
	}
	ratePerGB := opts.RatePerGB
	if ratePerGB == 0 { //taalint:floateq zero is the explicit "use default" sentinel; negatives are rejected below

		ratePerGB = 1
	}
	if ratePerGB < 0 {
		return nil, fmt.Errorf("flow: negative RatePerGB %v", ratePerGB)
	}
	var out []*Flow
	id := firstID
	for m := 0; m < job.NumMaps; m++ {
		for r := 0; r < job.NumReduces; r++ {
			size := job.Shuffle[m][r]
			if size <= opts.MinSizeGB {
				continue
			}
			if mapContainers[m] == reduceContainers[r] {
				return nil, fmt.Errorf("flow: map %d and reduce %d share container %d", m, r, mapContainers[m])
			}
			out = append(out, &Flow{
				ID:          id,
				JobID:       job.ID,
				MapIndex:    m,
				ReduceIndex: r,
				Src:         mapContainers[m],
				Dst:         reduceContainers[r],
				SizeGB:      size,
				Rate:        size * ratePerGB,
			})
			id++
		}
	}
	return out, nil
}
