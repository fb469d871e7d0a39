package flow

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// BuildJobFlows creates one Flow per positive cell of the job's shuffle
// matrix, with its rate equal to its size, as the simulator's flows have.
// mapContainers[m] must host map task m and reduceContainers[r] reduce
// task r. IDs are assigned sequentially starting at firstID.
func BuildJobFlows(job *workload.Job, mapContainers, reduceContainers []cluster.ContainerID, firstID ID) ([]*Flow, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if len(mapContainers) != job.NumMaps {
		return nil, fmt.Errorf("flow: %d map containers for %d map tasks", len(mapContainers), job.NumMaps)
	}
	if len(reduceContainers) != job.NumReduces {
		return nil, fmt.Errorf("flow: %d reduce containers for %d reduce tasks", len(reduceContainers), job.NumReduces)
	}
	var out []*Flow
	id := firstID
	for m := 0; m < job.NumMaps; m++ {
		for r := 0; r < job.NumReduces; r++ {
			size := job.Shuffle[m][r]
			if size <= 0 {
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
				Rate:        size,
			})
			id++
		}
	}
	return out, nil
}
