package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made. Spans of one op share Op;
// Parent is the ID of the span that caused it, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	base  time.Time
	op    int
	spans []span
}

// newTracer preallocates room for the spans of a traced pass, so recording
// one rarely allocates inside a measured call.
func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span under parent and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.base))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover, counting overlapping children once.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, reach int64
	reach = p.Start
	for _, k := range kids {
		lo := max(k.lo, reach)
		if k.hi > lo {
			covered += k.hi - lo
			reach = k.hi
		}
	}
	return p.dur() - time.Duration(covered)
}

// nearestRank is the index of the pct-th percentile (nearest-rank method)
// among n sorted samples.
func nearestRank(n, pct int) int {
	i := (pct*n+99)/100 - 1
	return min(max(i, 0), n-1)
}

// tailIndex is the index, among n sorted samples, of the tail percentile the
// benchmark reports: the pct-th percentile lowered until at least ten
// samples lie beyond it, and never below the median.
func tailIndex(n, pct int) int {
	return max(min(nearestRank(n, pct), n-11), nearestRank(n, 50))
}

// quantiles summarizes a sample: its median and its tail percentile, plus
// the percentile the tail actually is and how many samples lie beyond it.
type quantiles struct {
	p50, tail       float64
	tailPct, beyond int
}

func summarize(values []float64, pct int) quantiles {
	n := len(values)
	if n == 0 {
		return quantiles{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := tailIndex(n, pct)
	return quantiles{
		p50:     s[nearestRank(n, 50)],
		tail:    s[i],
		tailPct: (100*(i+1) + n - 1) / n,
		beyond:  n - 1 - i,
	}
}

// tally counts ops against the number attempted: every op started counts,
// whether it returned an error, failed a check or passed.
type tally struct{ attempted, failed int }

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

func (t tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func (t tally) String() string {
	return fmt.Sprintf("%d failed / %d attempted", t.failed, t.attempted)
}
