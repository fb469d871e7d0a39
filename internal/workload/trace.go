package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace is a serializable workload: the jobs plus optional arrival times,
// so an experiment's exact inputs can be saved, shared and replayed.
type Trace struct {
	// Name labels the trace.
	Name string `json:"name"`
	// Jobs in submission order.
	Jobs []*Job `json:"jobs"`
	// Arrivals[i] is job i's submission time; empty means batch at t=0.
	Arrivals []float64 `json:"arrivals,omitempty"`
}

// Validate checks the trace's internal consistency.
func (t *Trace) Validate() error {
	if t == nil {
		return fmt.Errorf("workload: nil trace")
	}
	for i, j := range t.Jobs {
		if j == nil {
			return fmt.Errorf("workload: trace job %d is nil", i)
		}
		if err := j.Validate(); err != nil {
			return fmt.Errorf("workload: trace job %d: %w", i, err)
		}
	}
	if len(t.Arrivals) != 0 {
		if len(t.Arrivals) != len(t.Jobs) {
			return fmt.Errorf("workload: trace has %d arrivals for %d jobs", len(t.Arrivals), len(t.Jobs))
		}
		prev := -1.0
		for i, a := range t.Arrivals {
			if !finiteNonNegative(a) {
				return fmt.Errorf("workload: trace arrival %d (job %d) = %v", i, t.Jobs[i].ID, a)
			}
			if a < prev {
				return fmt.Errorf("workload: trace arrivals not sorted at %d", i)
			}
			prev = a
		}
	}
	return nil
}

// TotalShuffleGB sums over the trace's jobs.
func (t *Trace) TotalShuffleGB() float64 {
	var sum float64
	for _, j := range t.Jobs {
		sum += j.TotalShuffleGB()
	}
	return sum
}

// Save writes the trace as indented JSON.
func (t *Trace) Save(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// LoadTrace reads and validates a trace written by Save.
func LoadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
