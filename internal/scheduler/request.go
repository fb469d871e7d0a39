package scheduler

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/workload"
)

// JobTasks records the containers created for one job's tasks.
type JobTasks struct {
	Job     *workload.Job
	Maps    []cluster.ContainerID
	Reduces []cluster.ContainerID
}

// NewJobRequest creates one container per Map and Reduce task of every job
// (all tasks in a single wave), builds the corresponding shuffle flows, and
// assembles a ready-to-schedule Request. demand is the per-container
// resource ask; rng drives the schedulers' stochastic choices.
func NewJobRequest(cl *cluster.Cluster, ctl *controller.Controller, jobs []*workload.Job, demand cluster.Resources, rng *rand.Rand) (*Request, []JobTasks, error) {
	if cl == nil || ctl == nil {
		return nil, nil, fmt.Errorf("scheduler: nil cluster or controller")
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("scheduler: nil rng")
	}
	req := &Request{
		Cluster:    cl,
		Controller: ctl,
		Fixed:      make(map[cluster.ContainerID]bool),
		Rand:       rng,
	}
	var jobTasks []JobTasks
	nextFlowID := flow.ID(0)
	for _, job := range jobs {
		if err := job.Validate(); err != nil {
			return nil, nil, err
		}
		jt := JobTasks{Job: job}
		for m := 0; m < job.NumMaps; m++ {
			ct, err := cl.NewContainer(demand)
			if err != nil {
				return nil, nil, err
			}
			jt.Maps = append(jt.Maps, ct.ID)
			req.Tasks = append(req.Tasks, Task{Job: job, Kind: workload.MapTask, Index: m, Container: ct.ID})
		}
		for r := 0; r < job.NumReduces; r++ {
			ct, err := cl.NewContainer(demand)
			if err != nil {
				return nil, nil, err
			}
			jt.Reduces = append(jt.Reduces, ct.ID)
			req.Tasks = append(req.Tasks, Task{Job: job, Kind: workload.ReduceTask, Index: r, Container: ct.ID})
		}
		flows, err := flow.BuildJobFlows(job, jt.Maps, jt.Reduces, nextFlowID)
		if err != nil {
			return nil, nil, err
		}
		if len(flows) > 0 {
			nextFlowID = flows[len(flows)-1].ID + 1
		}
		req.Flows = append(req.Flows, flows...)
		jobTasks = append(jobTasks, jt)
	}
	return req, jobTasks, nil
}
