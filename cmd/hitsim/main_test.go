package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// base is the small-but-real scenario the tests perturb.
func base() config {
	return config{
		schedName: "hit", topoName: "tree", servers: 8, nJobs: 1,
		class: "mixed", bandwidth: 1.0, seed: 1,
	}
}

func TestRunValidScenario(t *testing.T) {
	cfg := base()
	cfg.gantt = true
	if err := run(cfg, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunEachSchedulerAndClass(t *testing.T) {
	for _, sched := range []string{"capacity", "pna", "random", "cam", "anneal"} {
		cfg := base()
		cfg.schedName, cfg.class, cfg.seed = sched, "light", 2
		if err := run(cfg, io.Discard); err != nil {
			t.Errorf("%s: %v", sched, err)
		}
	}
	for _, class := range []string{"heavy", "medium"} {
		cfg := base()
		cfg.topoName, cfg.class, cfg.seed = "fattree", class, 3
		if err := run(cfg, io.Discard); err != nil {
			t.Errorf("class %s: %v", class, err)
		}
	}
}

// TestRunErrors pins the error taxonomy: configuration mistakes are
// usageErrors (exit 2 in main), distinct from run failures (exit 1).
func TestRunErrors(t *testing.T) {
	for name, mutate := range map[string]func(*config){
		"unknown scheduler":           func(c *config) { c.schedName = "bogus" },
		"unknown topology":            func(c *config) { c.topoName = "bogus" },
		"unknown class":               func(c *config) { c.class = "bogus" },
		"halt without checkpoint":     func(c *config) { c.haltAfter = 1 },
		"negative halt":               func(c *config) { c.haltAfter = -2; c.checkpoint = "x" },
		"zero jobs":                   func(c *config) { c.nJobs = 0 },
		"negative jobs":               func(c *config) { c.nJobs = -3 },
		"resume without any workload": func(c *config) { c.resume = "x"; c.nJobs = 0 },
		"negative bandwidth":          func(c *config) { c.bandwidth = -1 },
		"zero bandwidth":              func(c *config) { c.bandwidth = 0 },
		"NaN bandwidth":               func(c *config) { c.bandwidth = math.NaN() },
		"infinite bandwidth":          func(c *config) { c.bandwidth = math.Inf(1) },
	} {
		cfg := base()
		mutate(&cfg)
		err := run(cfg, io.Discard)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if !errors.As(err, &usageError{}) {
			t.Errorf("%s: want usageError, got %T: %v", name, err, err)
		}
	}
}

func TestRunTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "w.json")
	cfg := base()
	cfg.schedName, cfg.nJobs, cfg.seed, cfg.traceOut = "capacity", 2, 4, trace
	if err := run(cfg, io.Discard); err != nil {
		t.Fatalf("save: %v", err)
	}
	replay := base()
	replay.nJobs, replay.seed, replay.tracePath = 0, 4, trace
	if err := run(replay, io.Discard); err != nil {
		t.Fatalf("replay: %v", err)
	}
	replay.tracePath = filepath.Join(dir, "missing.json")
	if err := run(replay, io.Discard); err == nil {
		t.Error("missing trace accepted")
	}
	if errors.As(run(replay, io.Discard), &usageError{}) {
		t.Error("missing trace file reported as a usage error; it is a run failure")
	}
}

// TestRunCheckpointResumeByteIdentical is the CLI-level restore
// guarantee: a run halted at a wave boundary and resumed from its
// checkpoint prints byte-identical output to the uninterrupted run.
func TestRunCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ck")
	cfg := base()
	cfg.nJobs, cfg.seed = 3, 7

	var full bytes.Buffer
	if err := run(cfg, &full); err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}

	halted := cfg
	halted.checkpoint = ckPath
	halted.haltAfter = 1
	if err := run(halted, io.Discard); !errors.Is(err, sim.ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}

	resumed := cfg
	resumed.resume = ckPath
	var got bytes.Buffer
	if err := run(resumed, &got); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !bytes.Equal(full.Bytes(), got.Bytes()) {
		t.Error("resumed output differs from uninterrupted run")
	}
}

// TestRunCheckpointMismatchSurfaces: resuming under a different seed must
// fail with sim.ErrCheckpointMismatch (exit 3 in main), not diverge.
func TestRunCheckpointMismatchSurfaces(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ck")
	cfg := base()
	cfg.nJobs, cfg.seed = 2, 7
	cfg.checkpoint = ckPath
	cfg.haltAfter = 1
	if err := run(cfg, io.Discard); !errors.Is(err, sim.ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	bad := base()
	bad.nJobs, bad.seed = 2, 8
	bad.resume = ckPath
	if err := run(bad, io.Discard); !errors.Is(err, sim.ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}

	// A corrupted file under the matching configuration: a map's wave index
	// past the job's waves is a mismatch (exit 3), not an index panic.
	ck, err := loadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	ck.Jobs[0].MapWaveOf[0] = 99
	corrupt := filepath.Join(dir, "corrupt.ck")
	if err := checkpointSink(corrupt)(ck); err != nil {
		t.Fatal(err)
	}
	same := base()
	same.nJobs, same.seed = 2, 7
	same.resume = corrupt
	if err := run(same, io.Discard); !errors.Is(err, sim.ErrCheckpointMismatch) {
		t.Fatalf("corrupt checkpoint: want ErrCheckpointMismatch, got %v", err)
	}
}
