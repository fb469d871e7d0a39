package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/workload"
)

// ckTopo/ckJobs shape a run that needs several map waves: one CPU per
// server makes slots scarce, so each job's maps spread across waves and
// every wave boundary is a real checkpoint site.
func ckRes() cluster.Resources { return cluster.Resources{CPU: 1, Memory: 2048} }

func ckJobs(t *testing.T, seed int64) []*workload.Job {
	t.Helper()
	return chaosJobs(t, 3, seed)
}

// runUninterrupted executes the full run, capturing every boundary
// checkpoint along the way.
func runUninterrupted(t *testing.T, seed int64, jobs []*workload.Job) (*Result, []*Checkpoint) {
	t.Helper()
	var cks []*Checkpoint
	eng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{
		Seed:           seed,
		CheckpointSink: func(c *Checkpoint) error { cks = append(cks, c); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res, cks
}

// TestCheckpointResumeBitIdentical is the core restore guarantee: a run
// killed at ANY wave boundary and resumed from that boundary's checkpoint
// produces a result fingerprint bit-identical to the uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		jobs := ckJobs(t, seed)
		want, cks := runUninterrupted(t, seed, jobs)
		if len(cks) < 2 {
			t.Fatalf("seed %d: only %d wave boundaries; workload too small to exercise restore", seed, len(cks))
		}
		for halt := 1; halt <= len(cks); halt++ {
			// Halted leg: run to the boundary and stop with ErrHalted.
			var last *Checkpoint
			eng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{
				Seed:           seed,
				CheckpointSink: func(c *Checkpoint) error { last = c; return nil },
				HaltAfterWave:  halt,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(jobs); !errors.Is(err, ErrHalted) {
				t.Fatalf("seed %d halt %d: want ErrHalted, got %v", seed, halt, err)
			}
			if last == nil || last.Wave != halt-1 {
				t.Fatalf("seed %d halt %d: final checkpoint %+v", seed, halt, last)
			}

			// Resumed leg: fresh engine, continue from the checkpoint.
			resumed, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{
				Seed:   seed,
				Resume: last,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Run(jobs)
			if err != nil {
				t.Fatalf("seed %d halt %d: resumed run: %v", seed, halt, err)
			}
			if !reflect.DeepEqual(resultFingerprint(want), resultFingerprint(got)) {
				t.Errorf("seed %d: resume from wave %d diverges from uninterrupted run", seed, halt-1)
			}
		}
	}
}

// TestCheckpointSaveLoadRoundTrip pins the gob wire format: a checkpoint
// survives encode/decode unchanged, and the decoded copy still resumes to
// the identical result.
func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	jobs := ckJobs(t, 2)
	want, cks := runUninterrupted(t, 2, jobs)
	ck := cks[0]
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, loaded) {
		t.Fatalf("checkpoint changed across encode/decode:\n%+v\n%+v", ck, loaded)
	}
	eng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: 2, Resume: loaded})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultFingerprint(want), resultFingerprint(got)) {
		t.Error("resume from decoded checkpoint diverges")
	}
}

// TestCheckpointMismatchRejected: resuming under ANY changed input —
// different seed, different workload — fails with ErrCheckpointMismatch
// instead of silently diverging.
func TestCheckpointMismatchRejected(t *testing.T) {
	jobs := ckJobs(t, 3)
	_, cks := runUninterrupted(t, 3, jobs)
	ck := cks[0]

	otherSeed, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: 4, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherSeed.Run(jobs); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("changed seed: want ErrCheckpointMismatch, got %v", err)
	}

	otherJobs, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: 3, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherJobs.Run(ckJobs(t, 9)); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("changed workload: want ErrCheckpointMismatch, got %v", err)
	}

	badVersion := *ck
	badVersion.Version = 99
	vEng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: 3, Resume: &badVersion})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vEng.Run(jobs); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("bad version: want ErrCheckpointMismatch, got %v", err)
	}
}

// TestCheckpointCorruptionRejected: a checkpoint whose indices do not fit
// the workload or the fabric fails with ErrCheckpointMismatch before the
// resumed loop reads them, one rule per case; none may panic.
func TestCheckpointCorruptionRejected(t *testing.T) {
	jobs := ckJobs(t, 3)
	_, cks := runUninterrupted(t, 3, jobs)
	// partial is a job with maps still unplaced at the first boundary.
	partial := -1
	for i, jc := range cks[0].Jobs {
		if jc.NextMap < jobs[i].NumMaps && len(jc.Flows) > 0 {
			partial = i
			break
		}
	}
	if partial < 0 {
		t.Fatal("no job left maps for a later wave; workload too small")
	}
	for _, tc := range []struct {
		name   string
		want   string
		mutate func(ck *Checkpoint, jc *JobCheckpoint)
	}{
		{"wave-negative", "wave", func(ck *Checkpoint, _ *JobCheckpoint) { ck.Wave = -5 }},
		{"next-map-negative", "NextMap", func(_ *Checkpoint, jc *JobCheckpoint) { jc.NextMap = -3 }},
		{"next-map-past-maps", "NextMap", func(_ *Checkpoint, jc *JobCheckpoint) { jc.NextMap = jobs[partial].NumMaps + 1 }},
		{"num-waves-negative", "NumWaves", func(_ *Checkpoint, jc *JobCheckpoint) { jc.NumWaves = -1 }},
		{"num-waves-past-maps", "NumWaves", func(_ *Checkpoint, jc *JobCheckpoint) { jc.NumWaves = jobs[partial].NumMaps + 1 }},
		{"map-container-missing", "has container", func(_ *Checkpoint, jc *JobCheckpoint) { jc.MapCts[0].ID = cluster.NoContainer }},
		{"map-container-past-next-map", "has container", func(_ *Checkpoint, jc *JobCheckpoint) { jc.MapCts[jc.NextMap].ID = 999 }},
		{"map-wave-past-waves", "MapWaveOf", func(_ *Checkpoint, jc *JobCheckpoint) { jc.MapWaveOf[0] = 99 }},
		{"map-wave-negative", "MapWaveOf", func(_ *Checkpoint, jc *JobCheckpoint) { jc.MapWaveOf[0] = -1 }},
		{"flow-map-past-next-map", "MapIndex", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].MapIndex = jc.NextMap }},
		{"flow-map-negative", "MapIndex", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].MapIndex = -1 }},
		{"flow-reduce-past-reduces", "ReduceIndex", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].ReduceIndex = 99 }},
		{"flow-reduce-negative", "ReduceIndex", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].ReduceIndex = -1 }},
		{"flow-src-not-its-map", "Src", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].Src = jc.Flows[0].Dst }},
		{"flow-dst-not-its-reduce", "Dst", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].Dst = jc.Flows[0].Src }},
		{"route-node-unknown", "route node", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].Route[0] = 99999 }},
		{"route-node-negative", "route node", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].Route[0] = -2 }},
		{"route-empty", "empty route", func(_ *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].Route = nil }},
		{"prev-wave-unknown", "PrevWave", func(_ *Checkpoint, jc *JobCheckpoint) { jc.PrevWave = append(jc.PrevWave, 999) }},
		{"flow-id-at-next", "flow ID", func(ck *Checkpoint, jc *JobCheckpoint) { jc.Flows[0].ID = ck.NextFlowID }},
		{"next-flow-id-rewound", "flow ID", func(ck *Checkpoint, _ *JobCheckpoint) { ck.NextFlowID = 0 }},
		{"next-flow-id-negative", "NextFlowID", func(ck *Checkpoint, _ *JobCheckpoint) { ck.NextFlowID = -1 }},
		{"next-flow-id-past-cells", "NextFlowID", func(ck *Checkpoint, _ *JobCheckpoint) {
			ck.NextFlowID = flow.ID(numberableFlows(jobs) + 1)
		}},
		{"next-flow-id-huge", "NextFlowID", func(ck *Checkpoint, _ *JobCheckpoint) { ck.NextFlowID = 1 << 40 }},
		{"flow-id-repeated", "flow ID", func(ck *Checkpoint, jc *JobCheckpoint) {
			for i := range ck.Jobs {
				if other := &ck.Jobs[i]; other != jc && len(other.Flows) > 0 {
					jc.Flows[0].ID = other.Flows[0].ID
					return
				}
			}
			t.Fatal("no other job recorded a flow")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := cks[0].Save(&buf); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(ck, &ck.Jobs[partial])
			eng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: 3, Resume: ck})
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Run(jobs)
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("want ErrCheckpointMismatch, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
			// No wave ran, so no policy was installed: scheduling a wave
			// draws from the RNG first.
			if d := eng.rngSrc.Draws(); d != 0 {
				t.Errorf("%d RNG draws before the error", d)
			}
		})
	}
}

// TestCheckpointRefusesUncoveredModes: fault injection and engine reuse
// carry state the checkpoint format does not capture, so enabling
// checkpointing there must error out rather than write resumable lies.
func TestCheckpointRefusesUncoveredModes(t *testing.T) {
	jobs := ckJobs(t, 1)
	sink := func(*Checkpoint) error { return nil }

	faulty, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{
		Seed:           1,
		Faults:         &faults.Plan{Tasks: faults.TaskModel{FailureProb: 0.1, Seed: 1}},
		CheckpointSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Run(jobs); err == nil {
		t.Error("checkpointing a fault-injected run did not error")
	}

	reused, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: 1, CheckpointSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Run(jobs); err == nil {
		t.Error("checkpointing a reused engine did not error")
	}
}

// TestRejectedRunKeepsEngineFresh: a call refused before it touches the
// cluster or the RNG leaves the engine fresh, so a checkpointed run on it
// still runs, bit-identical to one on a new engine.
func TestRejectedRunKeepsEngineFresh(t *testing.T) {
	jobs := ckJobs(t, 4)
	want, wantCks := runUninterrupted(t, 4, jobs)
	var cks []*Checkpoint
	eng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{
		Seed:           4,
		CheckpointSink: func(c *Checkpoint) error { cks = append(cks, c); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunWithArrivals(jobs, []float64{0}); err == nil {
		t.Fatal("arrivals of the wrong length accepted")
	}
	got, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("checkpointed run after a rejected call: %v", err)
	}
	if !reflect.DeepEqual(resultFingerprint(want), resultFingerprint(got)) {
		t.Error("run after a rejected call diverges from a fresh engine's")
	}
	if !reflect.DeepEqual(wantCks, cks) {
		t.Error("checkpoints after a rejected call differ from a fresh engine's")
	}
}

// TestConfigDigestPinned pins configDigest's values, so checkpoints
// written by earlier builds keep resuming: a digest change would reject
// every one of them with ErrCheckpointMismatch.
func TestConfigDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{1, 0xcef7e2c3585b6efd},
		{5, 0x8bf8a232bc8b57d2},
	} {
		eng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.configDigest(ckJobs(t, tc.seed), []float64{0, 1.5}); got != tc.want {
			t.Errorf("seed %d: configDigest = %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}

// legacyCheckpoint mirrors the gob shape of a Checkpoint written when it
// still carried the sharded scheduler's supervisor state. Gob matches
// fields by name, so LoadCheckpoint must skip Supervisor and keep the rest.
type legacyCheckpoint struct {
	Version    int
	Digest     uint64
	Wave       int
	NextFlowID flow.ID
	RNGDraws   uint64
	Supervisor *legacySupervisorState
	Jobs       []JobCheckpoint
}

type legacySupervisorState struct {
	Stats       legacySupervisorStats
	Ring        []bool
	RingI       int
	RingFill    int
	RingReplays int
	Commits     int
	ReprieveAt  int
	Phases      uint64
}

type legacySupervisorStats struct {
	Adopted int
	Replays []int
	Level   int
	Pinned  bool
}

// TestCheckpointDecodesLegacySupervisorField: a checkpoint that carries
// the dropped Supervisor field still decodes, unchanged in every field
// that remains, and resumes bit-identically.
func TestCheckpointDecodesLegacySupervisorField(t *testing.T) {
	jobs := ckJobs(t, 2)
	want, cks := runUninterrupted(t, 2, jobs)
	ck := cks[0]
	legacy := legacyCheckpoint{
		Version: ck.Version, Digest: ck.Digest, Wave: ck.Wave,
		NextFlowID: ck.NextFlowID, RNGDraws: ck.RNGDraws, Jobs: ck.Jobs,
		Supervisor: &legacySupervisorState{
			Stats: legacySupervisorStats{Adopted: 41, Replays: []int{0, 3, 1}, Level: 1},
			Ring:  []bool{true, false, true}, RingI: 2, RingFill: 3, RingReplays: 2,
			Commits: 44, ReprieveAt: 60, Phases: 9,
		},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if !reflect.DeepEqual(ck, loaded) {
		t.Fatalf("legacy checkpoint decoded differently:\n%+v\n%+v", ck, loaded)
	}
	eng, err := New(chaosTopo(t), ckRes(), &core.HitScheduler{}, Options{Seed: 2, Resume: loaded})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultFingerprint(want), resultFingerprint(got)) {
		t.Error("resume from legacy checkpoint diverges")
	}
}
