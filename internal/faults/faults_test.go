package faults

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

func testFatTree(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewFatTree(4, topology.LinkParams{Bandwidth: 10, Latency: 0.1, SwitchCapacity: 100})
	if err != nil {
		t.Fatalf("NewFatTree: %v", err)
	}
	return topo
}

func TestParseFormatRoundTrip(t *testing.T) {
	src := `
# pod failure drill
t=5 switch-degrade node=3 factor=0.25
t=12.5 switch-crash node=9
t=20 link-degrade link=2-7 factor=0.5
t=30 server-crash node=21
t=40 switch-recover node=9
t=45 link-recover link=2-7
t=50 server-recover node=21
t=55 switch-recover node=3
`
	evs, err := ParseTimeline(src)
	if err != nil {
		t.Fatalf("ParseTimeline: %v", err)
	}
	if len(evs) != 8 {
		t.Fatalf("parsed %d events, want 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("events not in timeline order at %d", i)
		}
	}
	if evs[0].Kind != SwitchDegrade || evs[0].Node != 3 || evs[0].Factor != 0.25 {
		t.Errorf("first event = %+v", evs[0])
	}
	if evs[2].Kind != LinkDegrade || evs[2].A != 2 || evs[2].B != 7 {
		t.Errorf("link event = %+v", evs[2])
	}

	again, err := ParseTimeline(Format(evs))
	if err != nil {
		t.Fatalf("re-parse formatted timeline: %v", err)
	}
	if !reflect.DeepEqual(evs, again) {
		t.Errorf("format/parse round trip diverged:\n%v\n%v", evs, again)
	}
}

func TestParseTimelineErrors(t *testing.T) {
	for _, bad := range []string{
		"switch-crash node=3",                  // missing t=
		"t=5 melt node=3",                      // unknown kind
		"t=-1 switch-crash node=3",             // negative time
		"t=5 switch-crash",                     // missing node
		"t=5 link-degrade node=3",              // link kind without link=
		"t=5 switch-degrade node=3 factor=1.5", // factor out of range
		"t=5 switch-crash node=3 color=red",    // unknown field
	} {
		if _, err := ParseTimeline(bad); err == nil {
			t.Errorf("ParseTimeline(%q) accepted invalid input", bad)
		}
	}
}

func TestGenerateTimelineDeterministic(t *testing.T) {
	topo := testFatTree(t)
	spec := Spec{Horizon: 100, Rate: 8, Severity: 0.6}
	a := GenerateTimeline(rand.New(rand.NewSource(42)), topo, spec)
	b := GenerateTimeline(rand.New(rand.NewSource(42)), topo, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timelines")
	}
	c := GenerateTimeline(rand.New(rand.NewSource(43)), topo, spec)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical timelines")
	}
	if len(a) == 0 {
		t.Fatal("rate 8 over horizon 100 produced no events")
	}

	// Every fault must be paired with a later recovery of the same target,
	// and outright crashes must only hit crashable switches.
	crashable := make(map[topology.NodeID]bool)
	for _, w := range crashableSwitches(topo) {
		crashable[w] = true
	}
	recoverSeen := make(map[topology.NodeID]float64)
	for _, ev := range a {
		switch ev.Kind {
		case SwitchCrash:
			if !crashable[ev.Node] {
				t.Errorf("crash targets non-crashable switch %d", ev.Node)
			}
		case SwitchRecover, ServerRecover:
			recoverSeen[ev.Node] = ev.Time
		}
	}
	for _, ev := range a {
		if ev.Kind == SwitchCrash || ev.Kind == ServerCrash {
			up, ok := recoverSeen[ev.Node]
			if !ok || up < ev.Time {
				t.Errorf("%s of %d at t=%v has no later recovery", ev.Kind, ev.Node, ev.Time)
			}
		}
	}
}

func TestInjectorRestoresNominals(t *testing.T) {
	topo := testFatTree(t)
	cl, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	srv := topo.Servers()[2]
	ct, err := cl.NewContainer(cluster.Resources{CPU: 1, Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(ct.ID, srv); err != nil {
		t.Fatal(err)
	}

	fingerprint := func() []uint64 {
		var fp []uint64
		for _, w := range topo.Switches() {
			fp = append(fp, math.Float64bits(topo.Node(w).Capacity))
			if topo.Alive(w) {
				fp = append(fp, 1)
			} else {
				fp = append(fp, 0)
			}
		}
		for _, l := range topo.Links() {
			fp = append(fp, math.Float64bits(l.Bandwidth))
		}
		for _, s := range topo.Servers() {
			fp = append(fp, uint64(cl.Capacity(s).CPU), uint64(cl.Capacity(s).Memory))
		}
		return fp
	}
	pristine := fingerprint()

	inj := NewInjector(topo, cl)
	w := topo.Switches()[0]
	w2 := topo.Switches()[5]
	l := topo.Links()[0]

	if _, err := inj.Apply(Event{Kind: SwitchCrash, Node: w2}); err != nil {
		t.Fatalf("SwitchCrash: %v", err)
	}
	if topo.Alive(w2) || topo.Node(w2).Capacity != 0 {
		t.Fatalf("crashed switch alive=%v cap=%v", topo.Alive(w2), topo.Node(w2).Capacity)
	}
	// Re-crashing a dead switch must not clobber the remembered nominal.
	if _, err := inj.Apply(Event{Kind: SwitchCrash, Node: w2}); err != nil {
		t.Fatalf("idempotent SwitchCrash: %v", err)
	}
	if _, err := inj.Apply(Event{Kind: SwitchDegrade, Node: w, Factor: 0.3}); err != nil {
		t.Fatalf("SwitchDegrade: %v", err)
	}
	if got := topo.Node(w).Capacity; got != 30 {
		t.Fatalf("degraded capacity = %v, want 30", got)
	}
	if _, err := inj.Apply(Event{Kind: LinkDegrade, A: l.A, B: l.B, Factor: 0.5}); err != nil {
		t.Fatalf("LinkDegrade: %v", err)
	}
	evicted, err := inj.Apply(Event{Kind: ServerCrash, Node: srv})
	if err != nil {
		t.Fatalf("ServerCrash: %v", err)
	}
	if len(evicted) != 1 || evicted[0] != ct.ID {
		t.Fatalf("evicted = %v, want [%d]", evicted, ct.ID)
	}
	if topo.Alive(srv) || cl.Capacity(srv) != (cluster.Resources{}) {
		t.Fatal("crashed server still alive or has capacity")
	}

	// Targeted recoveries restore exact nominals.
	if _, err := inj.Apply(Event{Kind: SwitchRecover, Node: w2}); err != nil {
		t.Fatal(err)
	}
	if !topo.Alive(w2) || topo.Node(w2).Capacity != 100 {
		t.Fatalf("recovered switch alive=%v cap=%v", topo.Alive(w2), topo.Node(w2).Capacity)
	}

	if err := inj.RestoreAll(); err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if got := fingerprint(); !reflect.DeepEqual(got, pristine) {
		t.Error("RestoreAll did not return the fabric to its pristine state")
	}
}

func TestTaskModelHashDraws(t *testing.T) {
	m := TaskModel{FailureProb: 0.3, StragglerProb: 0.2, Seed: 77}

	// Draws are pure: query order and repetition cannot change outcomes.
	first := make([]bool, 0, 24)
	for job := 0; job < 2; job++ {
		for idx := 0; idx < 3; idx++ {
			for att := 0; att < 2; att++ {
				first = append(first, m.AttemptFails(job, idx, att), m.Straggles(job, idx, att))
			}
		}
	}
	second := make([]bool, 0, 24)
	for att := 1; att >= 0; att-- {
		for idx := 2; idx >= 0; idx-- {
			for job := 1; job >= 0; job-- {
				second = append(second, m.AttemptFails(job, idx, att), m.Straggles(job, idx, att))
			}
		}
	}
	// Reverse-order walk visits the same (job, idx, att) triples; re-index to compare.
	want := make([]bool, len(first))
	i := 0
	for att := 1; att >= 0; att-- {
		for idx := 2; idx >= 0; idx-- {
			for job := 1; job >= 0; job-- {
				k := ((job*3+idx)*2 + att) * 2
				want[i], want[i+1] = first[k], first[k+1]
				i += 2
			}
		}
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatal("hash draws depended on query order")
	}

	if (TaskModel{FailureProb: 1, Seed: 1}).AttemptFails(0, 0, 0) != true {
		t.Error("FailureProb 1 must always fail")
	}
	if (TaskModel{Seed: 1}).AttemptFails(0, 0, 0) {
		t.Error("zero FailureProb must never fail")
	}
	if !(TaskModel{}).Inert() || (TaskModel{StragglerProb: 0.1}).Inert() {
		t.Error("Inert misclassifies")
	}

	// Backoff doubles per attempt from BackoffT.
	mb := TaskModel{BackoffT: 2}
	for att, want := range map[int]float64{1: 2, 2: 4, 3: 8} {
		if got := mb.RetryDelay(att); got != want {
			t.Errorf("RetryDelay(%d) = %v, want %v", att, got, want)
		}
	}

	// Straggler timing: slowdown without speculation, capped with it.
	ms := TaskModel{StragglerProb: 1, StragglerFactor: 4, SpeculationThreshold: 1.5, Seed: 9}
	dur, straggled, launched, won := ms.AttemptDuration(10, 0, 0, 0)
	if !straggled || launched || won || dur != 40 {
		t.Errorf("no-speculation straggler: dur=%v straggled=%v launched=%v won=%v", dur, straggled, launched, won)
	}
	ms.Speculation = true
	dur, straggled, launched, won = ms.AttemptDuration(10, 0, 0, 0)
	if !straggled || !launched || !won || dur != 25 {
		t.Errorf("speculative straggler: dur=%v launched=%v won=%v, want 25 true true", dur, launched, won)
	}
	// A mild straggler never trips the detection threshold: no backup.
	mild := TaskModel{StragglerProb: 1, StragglerFactor: 1.2, SpeculationThreshold: 1.5, Speculation: true, Seed: 9}
	dur, straggled, launched, won = mild.AttemptDuration(10, 0, 0, 0)
	if !straggled || launched || won || dur != 12 {
		t.Errorf("mild straggler: dur=%v launched=%v won=%v, want 12 false false", dur, launched, won)
	}
	// Past the threshold but the original still wins: launched without a win.
	lose := TaskModel{StragglerProb: 1, StragglerFactor: 2, SpeculationThreshold: 1.5, Speculation: true, Seed: 9}
	dur, straggled, launched, won = lose.AttemptDuration(10, 0, 0, 0)
	if !straggled || !launched || won || dur != 20 {
		t.Errorf("losing backup: dur=%v launched=%v won=%v, want 20 true false", dur, launched, won)
	}
}

// TestTaskModelBudget pins the retry-budget default: a zero or negative
// RetryBudget selects 3, any positive one is kept.
func TestTaskModelBudget(t *testing.T) {
	for _, tc := range []struct{ set, want int }{{0, 3}, {-1, 3}, {5, 5}} {
		if got := (TaskModel{RetryBudget: tc.set}).Budget(); got != tc.want {
			t.Errorf("TaskModel{RetryBudget: %d}.Budget() = %d, want %d", tc.set, got, tc.want)
		}
	}
}

func TestPlanEmptyAndKindString(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan must be empty")
	}
	if !(&Plan{}).Empty() {
		t.Error("zero plan must be empty")
	}
	if (&Plan{Tasks: TaskModel{FailureProb: 0.1}}).Empty() {
		t.Error("plan with task faults is not empty")
	}
	if SwitchCrash.String() != "switch-crash" || !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("Kind.String misbehaves")
	}
}
