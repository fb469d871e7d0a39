// Package hitplugin is the online phase of the paper's Hadoop integration
// (§6) — the mapred.job.topologyaware machinery that makes Hit-Scheduler a
// deployable plugin. For each submitted job it:
//
//  1. predicts the job's shuffle demand from the offline profile store
//     (§6's "profile the shuffle data rate for each application"),
//  2. solves the TAA placement with Hit-Scheduler on a planning snapshot
//     that mirrors the live cluster's current occupancy,
//  3. realizes the plan through the YARN ResourceManager as
//     Hit-ResourceRequests (§6.2–6.3), and
//  4. installs network policies for the job's predicted shuffle flows on
//     the shared controller, re-optimized against wherever the grants
//     actually landed.
//
// Completing a job releases its containers and policies and feeds the
// observed volumes back into the profile store, closing the offline/online
// loop.
package hitplugin

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/profile"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// Plugin wires the pieces together. Not safe for concurrent use.
type Plugin struct {
	rm     *yarn.ResourceManager
	live   *cluster.Cluster
	ctl    *controller.Controller
	store  *profile.Store
	demand cluster.Resources
	rng    *rand.Rand
	// nextFl numbers the flows installed on ctl, from 0 and never reused:
	// ctl's per-flow tables grow to every flow the plugin has numbered.
	nextFl flow.ID
	jobSeq int
}

// Job is a submission: what the user knows before running.
type Job struct {
	Benchmark  string
	InputGB    float64
	NumMaps    int
	NumReduces int
}

// Handle tracks a running job for completion.
type Handle struct {
	// App is the YARN application.
	App *yarn.Application
	// MapAllocs and ReduceAllocs are the granted containers, task-indexed.
	MapAllocs    []yarn.Allocation
	ReduceAllocs []yarn.Allocation
	// Flows are the job's predicted shuffle flows with installed policies.
	Flows []*flow.Flow
	// PredictedShuffleGB is the profile-based estimate used for planning.
	PredictedShuffleGB float64

	job Job
}

// New builds a plugin over a live ResourceManager and cluster. The
// controller and planning machinery are created internally; demand is the
// per-container ask used for every task.
func New(rm *yarn.ResourceManager, live *cluster.Cluster, store *profile.Store, demand cluster.Resources, seed int64) (*Plugin, error) {
	if rm == nil || live == nil || store == nil {
		return nil, fmt.Errorf("hitplugin: nil ResourceManager, cluster or store")
	}
	if demand.CPU <= 0 {
		return nil, fmt.Errorf("hitplugin: demand needs positive CPU, got %v", demand)
	}
	return &Plugin{
		rm:     rm,
		live:   live,
		ctl:    controller.New(live.Topology()),
		store:  store,
		demand: demand,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Controller exposes the plugin's policy controller (for inspection).
func (p *Plugin) Controller() *controller.Controller { return p.ctl }

// Submit plans, realizes and wires one job.
func (p *Plugin) Submit(job Job) (*Handle, error) {
	if job.NumMaps <= 0 || job.NumReduces <= 0 {
		return nil, fmt.Errorf("hitplugin: job needs positive task counts, got %d/%d", job.NumMaps, job.NumReduces)
	}
	if job.InputGB <= 0 {
		return nil, fmt.Errorf("hitplugin: job needs positive input, got %v", job.InputGB)
	}
	shuffleGB, err := p.store.PredictShuffleGB(job.Benchmark, job.InputGB)
	if err != nil {
		return nil, fmt.Errorf("hitplugin: %w (profile the benchmark offline first)", err)
	}

	// Predicted job: a uniform shuffle matrix carrying the estimated volume.
	wj := &workload.Job{
		ID:         p.jobSeq,
		Benchmark:  job.Benchmark,
		InputGB:    job.InputGB,
		NumMaps:    job.NumMaps,
		NumReduces: job.NumReduces,
	}
	p.jobSeq++
	cell := shuffleGB / float64(job.NumMaps*job.NumReduces)
	wj.Shuffle = make([][]float64, job.NumMaps)
	for m := range wj.Shuffle {
		wj.Shuffle[m] = make([]float64, job.NumReduces)
		for r := range wj.Shuffle[m] {
			wj.Shuffle[m][r] = cell
		}
	}
	wj.MapComputeSec = make([]float64, job.NumMaps)
	wj.ReduceComputeSec = make([]float64, job.NumReduces)

	// Planning snapshot: a scratch cluster whose per-server capacity equals
	// the live cluster's current free resources.
	scratch, err := cluster.New(p.live.Topology(), cluster.Resources{})
	if err != nil {
		return nil, err
	}
	for _, s := range p.live.Servers() {
		if err := scratch.SetServerCapacity(s, p.live.Free(s)); err != nil {
			return nil, err
		}
	}
	planCtl := controller.New(p.live.Topology())
	req, _, err := scheduler.NewJobRequest(scratch, planCtl, []*workload.Job{wj}, p.demand, p.rng)
	if err != nil {
		return nil, err
	}
	if err := (&core.HitScheduler{}).Schedule(req); err != nil {
		return nil, fmt.Errorf("hitplugin: planning: %w", err)
	}
	plan, err := yarn.PlanFromSchedule(req, p.demand)
	if err != nil {
		return nil, err
	}

	// Realize through YARN. The plan's task order matches req.Tasks: maps
	// then reduces per NewJobRequest.
	app := p.rm.Submit(fmt.Sprintf("%s-%d", job.Benchmark, p.jobSeq-1))
	allocs, err := yarn.Realize(p.rm, app, plan)
	if err != nil {
		return nil, fmt.Errorf("hitplugin: realization: %w", err)
	}
	h := &Handle{App: app, PredictedShuffleGB: shuffleGB, job: job}
	h.MapAllocs = allocs[:job.NumMaps]
	h.ReduceAllocs = allocs[job.NumMaps:]

	// Wire the flows against the ACTUAL grant locations and install
	// re-optimized policies on the shared controller.
	loc := flow.LocatorFunc(func(c cluster.ContainerID) topology.NodeID {
		ct := p.live.Container(c)
		if ct == nil {
			return topology.None
		}
		return ct.Server()
	})
	for m := 0; m < job.NumMaps; m++ {
		for r := 0; r < job.NumReduces; r++ {
			if cell <= 0 {
				continue
			}
			f := &flow.Flow{
				ID:          p.nextFl,
				JobID:       wj.ID,
				MapIndex:    m,
				ReduceIndex: r,
				Src:         h.MapAllocs[m].Container,
				Dst:         h.ReduceAllocs[r].Container,
				SizeGB:      cell,
				Rate:        cell,
			}
			p.nextFl++
			pol, err := p.ctl.OptimizePolicy(f, loc)
			if err != nil {
				return nil, fmt.Errorf("hitplugin: policy for flow %d: %w", f.ID, err)
			}
			if err := p.ctl.Install(f, pol); err != nil {
				return nil, fmt.Errorf("hitplugin: install flow %d: %w", f.ID, err)
			}
			h.Flows = append(h.Flows, f)
		}
	}
	return h, nil
}

// PreferredFraction reports how many of the handle's grants landed on their
// planned hosts.
func (h *Handle) PreferredFraction() float64 {
	total := len(h.MapAllocs) + len(h.ReduceAllocs)
	if total == 0 {
		return 0
	}
	n := 0
	for _, a := range h.MapAllocs {
		if a.Preferred {
			n++
		}
	}
	for _, a := range h.ReduceAllocs {
		if a.Preferred {
			n++
		}
	}
	return float64(n) / float64(total)
}

// Complete finishes a job: containers released, policies uninstalled, and
// the observed volumes folded back into the profile store. observedShuffleGB
// < 0 means "trust the prediction" (no measurement available).
func (p *Plugin) Complete(h *Handle, observedShuffleGB, observedRemoteMapGB float64) error {
	if h == nil {
		return fmt.Errorf("hitplugin: nil handle")
	}
	for _, f := range h.Flows {
		p.ctl.Uninstall(f.ID)
	}
	for _, a := range h.MapAllocs {
		if err := h.App.Release(a.Container); err != nil {
			return err
		}
	}
	for _, a := range h.ReduceAllocs {
		if err := h.App.Release(a.Container); err != nil {
			return err
		}
	}
	if observedShuffleGB < 0 {
		observedShuffleGB = h.PredictedShuffleGB
	}
	if observedRemoteMapGB < 0 {
		observedRemoteMapGB = 0
	}
	return p.store.Record(profile.Record{
		Benchmark:   h.job.Benchmark,
		InputGB:     h.job.InputGB,
		ShuffleGB:   observedShuffleGB,
		RemoteMapGB: observedRemoteMapGB,
	})
}
