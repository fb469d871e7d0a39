package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/profile"
)

func TestRunWritesProfile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "profiles.json")
	if err := run(10, 1, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty profile file")
	}
}

func TestRunNoOutput(t *testing.T) {
	if err := run(5, 2, ""); err != nil {
		t.Fatalf("run without output: %v", err)
	}
}

func TestRunBadPath(t *testing.T) {
	if err := run(5, 1, "/nonexistent-dir/x.json"); err == nil {
		t.Error("bad path accepted")
	}
}

// failingCloser accepts every write and fails on Close.
type failingCloser struct{ io.Writer }

func (failingCloser) Close() error { return errors.New("close failed") }

// TestRunErrors covers the rejected inputs: a job count below 1 is a usage
// error (exit 2), and a store whose Close fails is a run failure.
func TestRunErrors(t *testing.T) {
	store, err := profile.NewStore(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		run   func() error
		usage bool
	}{
		{"jobs=-3", func() error { return run(-3, 1, "") }, true},
		{"jobs=0", func() error { return run(0, 1, "") }, true},
		{"close fails", func() error { return saveStore(store, failingCloser{io.Discard}) }, false},
	} {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if usage := errors.As(err, &usageError{}); usage != tc.usage {
			t.Errorf("%s: usage error %v, want %v (%v)", tc.name, usage, tc.usage, err)
		}
	}
}
