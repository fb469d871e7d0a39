package sim

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Checkpoint/restore serializes the joint scheduling loop's run state at a
// wave boundary so an interrupted run can resume and produce byte-identical
// output. The boundary is chosen deliberately: at the end of a wave body
// every flow policy of the wave has already been recorded and uninstalled,
// so the controller carries no installed state — the whole run reduces to
// placements, per-job progress, recorded flows, and the RNG stream
// position. Everything else (wave timelines, the shuffle simulation, all
// aggregate metrics) is recomputed deterministically from those inputs.
//
// Determinism argument: the only stateful inputs a later wave reads are
// (a) the cluster's placements and container set, restored exactly, by
// ascending container ID so the sequential NewContainer IDs and the
// order-independent Place accounting reproduce bit-identically; (b) the
// shared RNG, restored by replaying the recorded number of source draws
// (CountingSource.FastForward) — the generator is a pure function of
// seed and draw count; and (c) nextFlowID, stored directly.
// A configuration digest over every run input guards against resuming
// into a different world (ErrCheckpointMismatch).

// Sentinel errors of the checkpoint path, errors.Is-able through the
// wrapping applied by RunWithArrivals and cmd/hitsim.
var (
	// ErrHalted marks a run deliberately stopped by Options.HaltAfterWave
	// after writing its boundary checkpoint; it is an orderly exit, not a
	// failure.
	ErrHalted = errors.New("sim: run halted at wave boundary")
	// ErrCheckpointMismatch marks a resume whose checkpoint was taken
	// under a different configuration (scheduler, topology, seed,
	// workload, arrivals) than the resuming engine's, or whose recorded
	// indices and placements do not fit that configuration.
	ErrCheckpointMismatch = errors.New("sim: checkpoint does not match run configuration")
)

// checkpointVersion gates the gob wire format.
const checkpointVersion = 1

// ContainerCK records one container: its sequential ID and the server it
// is placed on (topology.None when currently unplaced).
type ContainerCK struct {
	ID     cluster.ContainerID
	Server topology.NodeID
}

// FlowCK records one scheduled shuffle flow plus its frozen route metrics
// (the policy itself was uninstalled at the wave boundary; the metrics are
// what the rest of the run consumes).
type FlowCK struct {
	ID                    flow.ID
	MapIndex, ReduceIndex int
	Src, Dst              cluster.ContainerID
	SizeGB, Rate          float64
	Route                 []topology.NodeID
	Hops                  int
	Cost, Delay, LatT     float64
}

// JobCheckpoint is one job's scheduling progress.
type JobCheckpoint struct {
	NextMap   int
	NumWaves  int
	ReduceCts []ContainerCK
	// MapCts has one entry per map task; Server is topology.None for maps
	// whose containers have been released, and ID is cluster.NoContainer
	// for maps not yet created.
	MapCts    []ContainerCK
	MapWaveOf []int
	// PrevWave lists the container IDs of the job's most recent map wave
	// (still placed at the boundary; the next wave releases them).
	PrevWave []cluster.ContainerID
	Flows    []FlowCK
}

// Checkpoint is the joint-loop run state at one wave boundary.
type Checkpoint struct {
	Version int
	// Digest fingerprints every run input (scheduler, topology, options,
	// workload, arrivals); Restore refuses a mismatch.
	Digest uint64
	// Wave is the just-completed wave index; the resumed loop starts at
	// Wave+1.
	Wave       int
	NextFlowID flow.ID
	// RNGDraws is the number of source-level draws consumed so far; resume
	// fast-forwards a fresh seeded source by exactly this count.
	RNGDraws uint64
	Jobs     []JobCheckpoint
}

// Save gob-encodes the checkpoint.
func (c *Checkpoint) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// LoadCheckpoint decodes a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want %d: %w", c.Version, checkpointVersion, ErrCheckpointMismatch)
	}
	return &c, nil
}

// configDigest fingerprints every input that shapes the run: if any of
// them differs between checkpoint and resume, the resumed trajectory would
// silently diverge, so Restore fails instead.
func (e *Engine) configDigest(jobs []*workload.Job, arrivals []float64) uint64 {
	// FNV-1a 64 over a stream of little-endian 64-bit words; a string is
	// its length word followed by its bytes.
	var b []byte
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) { word(uint64(len(s))); b = append(b, s...) }
	float := func(f float64) { word(math.Float64bits(f)) }
	str(e.sched.Name())
	str(e.topo.Name())
	word(uint64(e.topo.NumServers()))
	word(uint64(e.topo.NumSwitches()))
	word(uint64(e.opts.Seed))
	// Words of options since fixed: the container demand (1 CPU, 1024 MB),
	// the map fetch bandwidth 1, and the straggler probability 0, factor 3
	// and speculation flag 0 of the retired straggler model. Kept so
	// earlier checkpoints still resume.
	word(1)
	word(1024)
	float(1)
	float(0)
	float(3)
	word(0)
	word(uint64(len(jobs)))
	for _, j := range jobs {
		word(uint64(j.ID))
		str(j.Benchmark)
		word(uint64(j.Class))
		float(j.InputGB)
		float(j.RemoteMapGB)
		word(uint64(j.NumMaps))
		word(uint64(j.NumReduces))
		for _, row := range j.Shuffle {
			for _, v := range row {
				float(v)
			}
		}
		for _, v := range j.MapComputeSec {
			float(v)
		}
		for _, v := range j.ReduceComputeSec {
			float(v)
		}
	}
	for _, a := range arrivals {
		float(a)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkpointable rejects run modes the checkpoint format does not cover:
// fault injection re-randomizes at boundaries the checkpoint cannot see,
// and a used engine starts from a non-pristine RNG/cluster.
func (e *Engine) checkpointable() error {
	switch {
	case !e.opts.Faults.Empty():
		return fmt.Errorf("sim: checkpoint/restore is incompatible with fault injection")
	case e.used:
		return fmt.Errorf("sim: checkpoint/restore requires a fresh engine")
	}
	return nil
}

// checkpoint captures the run state at the end of wave's body.
func (e *Engine) checkpoint(states []*jobState, jobs []*workload.Job, arrivals []float64, wave int, nextFlowID flow.ID) *Checkpoint {
	ck := &Checkpoint{
		Version:    checkpointVersion,
		Digest:     e.configDigest(jobs, arrivals),
		Wave:       wave,
		NextFlowID: nextFlowID,
		RNGDraws:   e.rngSrc.Draws(),
	}
	for _, st := range states {
		jc := JobCheckpoint{
			NextMap:   st.nextMap,
			NumWaves:  st.numWaves,
			MapWaveOf: append([]int(nil), st.mapWaveOf...),
			PrevWave:  append([]cluster.ContainerID(nil), st.prevWave...),
		}
		for _, c := range st.reduceCts {
			jc.ReduceCts = append(jc.ReduceCts, ContainerCK{ID: c, Server: e.cl.Container(c).Server()})
		}
		for _, c := range st.mapCts {
			mk := ContainerCK{ID: c, Server: topology.None}
			if c != cluster.NoContainer {
				mk.Server = e.cl.Container(c).Server()
			}
			jc.MapCts = append(jc.MapCts, mk)
		}
		for _, fr := range st.flows {
			jc.Flows = append(jc.Flows, FlowCK{
				ID: fr.flow.ID, MapIndex: fr.flow.MapIndex, ReduceIndex: fr.flow.ReduceIndex,
				Src: fr.flow.Src, Dst: fr.flow.Dst,
				SizeGB: fr.flow.SizeGB, Rate: fr.flow.Rate,
				Route: append([]topology.NodeID(nil), fr.route...),
				Hops:  fr.hops, Cost: fr.cost, Delay: fr.delay, LatT: fr.latT,
			})
		}
		ck.Jobs = append(ck.Jobs, jc)
	}
	return ck
}

// restore rebuilds the joint-loop state from a checkpoint on a fresh
// engine: containers are recreated in ascending ID order (reproducing the
// sequential NewContainer IDs), placed ones are re-placed, per-job
// progress and flow records are reinstated, and the RNG source is
// fast-forwarded to the recorded draw count. Returns the state slice,
// next flow ID, and the wave index the loop should continue from.
func (e *Engine) restore(ck *Checkpoint, jobs []*workload.Job, arrivals []float64) ([]*jobState, flow.ID, int, error) {
	if ck.Version != checkpointVersion {
		return nil, 0, 0, fmt.Errorf("sim: checkpoint version %d, want %d: %w", ck.Version, checkpointVersion, ErrCheckpointMismatch)
	}
	if got := e.configDigest(jobs, arrivals); got != ck.Digest {
		return nil, 0, 0, fmt.Errorf("sim: config digest %#x, checkpoint has %#x: %w", got, ck.Digest, ErrCheckpointMismatch)
	}
	if len(ck.Jobs) != len(jobs) {
		return nil, 0, 0, fmt.Errorf("sim: checkpoint has %d jobs, run has %d: %w", len(ck.Jobs), len(jobs), ErrCheckpointMismatch)
	}
	if ck.Wave < 0 {
		return nil, 0, 0, fmt.Errorf("sim: checkpoint wave %d is negative: %w", ck.Wave, ErrCheckpointMismatch)
	}

	// Recreate every recorded container in ascending ID order so the
	// sequential NewContainer counter reproduces each recorded ID exactly;
	// a gap or duplicate means the checkpoint is corrupt.
	var all []ContainerCK
	flowIDs := make(map[flow.ID]bool)
	for i := range ck.Jobs {
		jc := &ck.Jobs[i]
		if err := e.checkJob(jc, jobs[i], ck.NextFlowID, flowIDs); err != nil {
			return nil, 0, 0, fmt.Errorf("sim: checkpoint job %d: %v: %w", i, err, ErrCheckpointMismatch)
		}
		all = append(all, jc.ReduceCts...)
		for _, mk := range jc.MapCts {
			if mk.ID != cluster.NoContainer {
				all = append(all, mk)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	for _, rec := range all {
		ct, err := e.cl.NewContainer(containerDemand)
		if err != nil {
			return nil, 0, 0, err
		}
		if ct.ID != rec.ID {
			return nil, 0, 0, fmt.Errorf("sim: restored container ID %d, checkpoint recorded %d: %w", ct.ID, rec.ID, ErrCheckpointMismatch)
		}
		if rec.Server != topology.None {
			if err := e.cl.Place(rec.ID, rec.Server); err != nil {
				return nil, 0, 0, fmt.Errorf("sim: restoring container %d: %v: %w", rec.ID, err, ErrCheckpointMismatch)
			}
		}
	}

	states := make([]*jobState, len(jobs))
	for i, job := range jobs {
		jc := &ck.Jobs[i]
		st := newJobState(job, arrivals[i])
		st.nextMap, st.numWaves = jc.NextMap, jc.NumWaves
		copy(st.mapWaveOf, jc.MapWaveOf)
		st.prevWave = append([]cluster.ContainerID(nil), jc.PrevWave...)
		for m, mk := range jc.MapCts {
			st.mapCts[m] = mk.ID
		}
		for _, c := range jc.ReduceCts {
			st.reduceCts = append(st.reduceCts, c.ID)
		}
		for _, fc := range jc.Flows {
			fl := &flow.Flow{
				ID: fc.ID, JobID: job.ID, MapIndex: fc.MapIndex, ReduceIndex: fc.ReduceIndex,
				Src: fc.Src, Dst: fc.Dst, SizeGB: fc.SizeGB, Rate: fc.Rate,
			}
			st.flows = append(st.flows, &flowRecord{
				flow:  fl,
				route: append([]topology.NodeID(nil), fc.Route...),
				hops:  fc.Hops, cost: fc.Cost, delay: fc.Delay, latT: fc.LatT,
			})
		}
		states[i] = st
	}
	if e.rngSrc.Draws() > ck.RNGDraws {
		return nil, 0, 0, fmt.Errorf("sim: RNG already past checkpoint position (%d > %d): %w",
			e.rngSrc.Draws(), ck.RNGDraws, ErrCheckpointMismatch)
	}
	e.rngSrc.FastForward(ck.RNGDraws)
	return states, ck.NextFlowID, ck.Wave + 1, nil
}

// checkJob rejects a job record whose indices the resumed loop cannot
// trust: each one later indexes a slice sized by the workload, by the
// job's waves or by the fabric, names a container the next wave releases,
// or becomes a netsim transfer. Flow IDs must lie below nextFlowID, which
// the resumed loop hands out next, and appear once across the checkpoint;
// seen collects them over the jobs.
func (e *Engine) checkJob(jc *JobCheckpoint, job *workload.Job, nextFlowID flow.ID, seen map[flow.ID]bool) error {
	if len(jc.MapCts) != job.NumMaps || len(jc.MapWaveOf) != job.NumMaps || len(jc.ReduceCts) != job.NumReduces {
		return fmt.Errorf("shape does not match workload")
	}
	if jc.NextMap < 0 || jc.NextMap > job.NumMaps {
		return fmt.Errorf("NextMap %d outside [0, %d]", jc.NextMap, job.NumMaps)
	}
	// A job takes one or more maps in every wave it joins.
	if jc.NumWaves < 0 || jc.NumWaves > job.NumMaps {
		return fmt.Errorf("NumWaves %d outside [0, %d]", jc.NumWaves, job.NumMaps)
	}
	for m, mk := range jc.MapCts {
		if (mk.ID != cluster.NoContainer) != (m < jc.NextMap) {
			return fmt.Errorf("map %d has container %d with NextMap %d", m, mk.ID, jc.NextMap)
		}
		if w := jc.MapWaveOf[m]; m < jc.NextMap && (w < 0 || w >= jc.NumWaves) {
			return fmt.Errorf("map %d MapWaveOf %d outside [0, %d)", m, w, jc.NumWaves)
		}
	}
	for _, c := range jc.PrevWave {
		if !slices.ContainsFunc(jc.MapCts[:jc.NextMap], func(mk ContainerCK) bool { return mk.ID == c }) {
			return fmt.Errorf("PrevWave container %d is not one of the job's map containers", c)
		}
	}
	for _, fc := range jc.Flows {
		switch {
		case fc.ID < 0 || fc.ID >= nextFlowID:
			return fmt.Errorf("flow ID %d outside [0, NextFlowID %d)", fc.ID, nextFlowID)
		case seen[fc.ID]:
			return fmt.Errorf("flow ID %d recorded twice", fc.ID)
		case len(fc.Route) == 0:
			return fmt.Errorf("flow %d has an empty route", fc.ID)
		case fc.MapIndex < 0 || fc.MapIndex >= jc.NextMap:
			return fmt.Errorf("flow %d MapIndex %d outside [0, %d)", fc.ID, fc.MapIndex, jc.NextMap)
		case fc.ReduceIndex < 0 || fc.ReduceIndex >= job.NumReduces:
			return fmt.Errorf("flow %d ReduceIndex %d outside [0, %d)", fc.ID, fc.ReduceIndex, job.NumReduces)
		case fc.Src != jc.MapCts[fc.MapIndex].ID:
			return fmt.Errorf("flow %d Src %d is not map %d's container", fc.ID, fc.Src, fc.MapIndex)
		case fc.Dst != jc.ReduceCts[fc.ReduceIndex].ID:
			return fmt.Errorf("flow %d Dst %d is not reduce %d's container", fc.ID, fc.Dst, fc.ReduceIndex)
		}
		for _, n := range fc.Route {
			if !e.topo.Valid(n) {
				return fmt.Errorf("flow %d route node %d is not in the fabric", fc.ID, n)
			}
		}
		seen[fc.ID] = true
	}
	return nil
}
