// Package core implements the paper's primary contribution: Hit-Scheduler,
// the Hierarchical-topology-aware MapReduce scheduler that jointly optimizes
// task assignment and network policy to minimize total shuffle traffic cost
// (the TAA problem of §3–4).
//
// The solution follows §5's separated optimization strategy:
//
//  1. Every flow starts from a random placement and a random policy.
//  2. Policy optimization (Algorithm 1) finds each flow's minimum-cost typed
//     switch route given current placements, and — by also exploring the
//     candidate servers of both endpoint containers (Figure 5's layered
//     flow-path graph) — accumulates a preference matrix P(server,
//     container) grading how much each server wants each container.
//  3. Task assignment (Algorithm 2) runs a modified many-to-one Gale–Shapley
//     matching between containers (ranking servers by the utility of moving
//     there, Eq. 10) and servers (ranking containers by the preference
//     matrix), respecting server capacities.
//  4. Policies are re-optimized for the new placement; the loop repeats
//     until the total cost stops improving.
//
// Wave structure (§5.3): when every Reduce container is already fixed (maps
// arriving in later waves), the scheduler switches to the greedy O(n²)
// subsequent-wave strategy: heaviest shuffle producers are paired with the
// lowest-delay feasible servers.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/parallel"
	"repro/internal/scheduler"
	"repro/internal/stablematch"
	"repro/internal/topology"
	"repro/internal/workload"
)

// HitScheduler implements scheduler.Scheduler with the paper's joint
// optimization. The zero value uses the defaults below; the ablation fields
// turn individual mechanisms off for the design-choice benchmarks.
type HitScheduler struct {
	// MaxIterations bounds the joint policy/assignment rounds. Zero selects
	// the default of 4; negative values are rejected by Schedule.
	MaxIterations int
	// Epsilon is the relative cost-improvement threshold below which the
	// loop stops. Zero selects the default of 1e-6; negative values are
	// rejected by Schedule.
	Epsilon float64
	// DisablePolicyOpt skips Algorithm 1's per-flow route optimization
	// (policies stay on their initial random routes). Ablation only.
	DisablePolicyOpt bool
	// DisableStableMatching replaces Algorithm 2 with per-container greedy
	// best-utility moves. Ablation only.
	DisableStableMatching bool
	// DisableIncremental turns off the dirty-set reuse across joint
	// iterations: every round then re-solves Algorithm 1 for every flow and
	// rebuilds every preference row from scratch. Results are bit-identical
	// either way (the incremental path only skips work it can prove is a
	// no-op), so this switch exists for parity tests and perf comparison.
	DisableIncremental bool

	// rowCap overrides the proposer-row cut of the rack-bucket build
	// (maxRowLen when zero). Tests shrink it to force cut rows and the
	// full-row rebuild.
	rowCap int
	// onRebuild, when set, observes each full-row re-match with the number
	// of proposers rebuilt. Tests only.
	onRebuild func(proposers int)
}

// Name implements scheduler.Scheduler.
func (h *HitScheduler) Name() string { return "hit" }

func (h *HitScheduler) maxIterations() int {
	if h.MaxIterations <= 0 {
		return 4
	}
	return h.MaxIterations
}

func (h *HitScheduler) epsilon() float64 {
	if h.Epsilon <= 0 {
		return 1e-6
	}
	return h.Epsilon
}

// incremental reports whether the dirty-set reuse is active. It is off
// under DisablePolicyOpt too: that ablation reinstalls random policies, and
// skipping any of those draws would shift the shared RNG stream.
func (h *HitScheduler) incremental() bool {
	return !h.DisableIncremental && !h.DisablePolicyOpt
}

// Schedule implements scheduler.Scheduler. Negative MaxIterations or
// Epsilon are configuration errors and are rejected up front; zero values
// select the documented defaults (4 iterations, 1e-6).
func (h *HitScheduler) Schedule(req *scheduler.Request) error {
	if h.MaxIterations < 0 {
		return fmt.Errorf("core: HitScheduler.MaxIterations must be non-negative, got %d (zero selects the default of 4)", h.MaxIterations)
	}
	if h.Epsilon < 0 {
		return fmt.Errorf("core: HitScheduler.Epsilon must be non-negative, got %g (zero selects the default of 1e-6)", h.Epsilon)
	}
	if err := req.Validate(); err != nil {
		return err
	}
	movable := h.movableTasks(req)
	flows := req.Flows

	var report *scheduler.ScheduleReport
	if req.Degraded {
		report = req.Report
		if report == nil {
			report = &scheduler.ScheduleReport{}
			req.Report = report
		}
	}

	// §5.3.1: random initial assignment for every unplaced container. In
	// degraded mode a container with no feasible server is reported and
	// skipped (with its flows) instead of aborting the wave.
	dropped := make(map[cluster.ContainerID]bool)
	// One candidate list per demand class, scanned on first use and
	// then kept equal to a live scan: placements only ever fill
	// servers, so a list changes only by dropping the server just
	// filled, once it no longer fits the class.
	var pools []startPool
	for _, t := range movable {
		ct := req.Cluster.Container(t.Container)
		if ct.Placed() {
			continue
		}
		pi := slices.IndexFunc(pools, func(p startPool) bool { return p.demand == ct.Demand })
		if pi < 0 {
			pi = len(pools)
			pools = append(pools, startPool{demand: ct.Demand, cands: req.Cluster.AppendCandidates(nil, t.Container)})
		}
		cands := pools[pi].cands
		if len(cands) == 0 {
			if report != nil {
				report.UnplacedContainers = append(report.UnplacedContainers, t.Container)
				dropped[t.Container] = true
				continue
			}
			return fmt.Errorf("core: %w for container %d", scheduler.ErrNoFeasibleServer, t.Container)
		}
		s := cands[req.Rand.Intn(len(cands))]
		if err := req.Cluster.Place(t.Container, s); err != nil {
			return err
		}
		free := req.Cluster.Free(s)
		for i := range pools {
			pools[i].drop(s, free)
		}
	}
	if len(dropped) > 0 {
		kept := movable[:0:0]
		for _, t := range movable {
			if !dropped[t.Container] {
				kept = append(kept, t)
			}
		}
		movable = kept
	}

	// Initial random policies (the paper's starting state for Algorithm 1).
	// In degraded mode an unroutable flow — no feasible switch or route, or
	// an endpoint left unplaced above — is reported and excluded from the
	// round's working set.
	loc := req.Locator()
	if report != nil {
		kept := flows[:0:0]
		for _, f := range flows {
			if loc.ServerOf(f.Src) == topology.None || loc.ServerOf(f.Dst) == topology.None {
				report.UnroutableFlows = append(report.UnroutableFlows, f.ID)
				continue
			}
			kept = append(kept, f)
		}
		flows = kept
	}
	routable := flows[:0:0]
	for _, f := range flows {
		p, err := req.Controller.RandomPolicy(f, loc, req.Rand)
		if err != nil {
			if report != nil && (errors.Is(err, controller.ErrNoFeasibleSwitch) || errors.Is(err, controller.ErrNoFeasibleRoute)) {
				report.UnroutableFlows = append(report.UnroutableFlows, f.ID)
				continue
			}
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			return fmt.Errorf("core: initial policy for flow %d: %w", f.ID, err)
		}
		routable = append(routable, f)
	}
	flows = routable

	if h.isSubsequentWave(req, movable, flows) {
		return h.scheduleSubsequentWave(req, movable, flows)
	}
	return h.scheduleInitialWave(req, movable, flows)
}

// startPool is one demand class's candidate list for the random initial
// placement, ascending like Cluster.AppendCandidates.
type startPool struct {
	demand cluster.Resources
	cands  []topology.NodeID
}

// drop removes s from the list once its free capacity no longer fits the
// class demand.
func (p *startPool) drop(s topology.NodeID, free cluster.Resources) {
	if (cluster.Resources{}).Fits(p.demand, free) {
		return
	}
	if i, ok := slices.BinarySearch(p.cands, s); ok {
		p.cands = slices.Delete(p.cands, i, i+1)
	}
}

// movableTasks returns the tasks whose containers this round may move.
func (h *HitScheduler) movableTasks(req *scheduler.Request) []scheduler.Task {
	var out []scheduler.Task
	for _, t := range req.Tasks {
		if !req.Fixed[t.Container] {
			out = append(out, t)
		}
	}
	return out
}

// isSubsequentWave reports whether this request matches §5.3.2: every
// movable task is a Map, and at least one flow terminates at a fixed
// (already placed) Reduce container.
func (h *HitScheduler) isSubsequentWave(req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow) bool {
	if len(movable) == 0 || len(req.Fixed) == 0 {
		return false
	}
	for _, t := range movable {
		if t.Kind != workload.MapTask {
			return false
		}
	}
	anyFixedDst := false
	for _, f := range flows {
		if req.Fixed[f.Dst] {
			anyFixedDst = true
			break
		}
	}
	return anyFixedDst
}

// flowSolve records one flow's most recent Algorithm-1 solve within a
// Schedule call: the solve's output policy (whether or not it was adopted),
// whether the solve ran over unfiltered stage lists, and the endpoint
// servers it saw. These are exactly the inputs cleanFlow needs to prove a
// re-solve would reproduce the same result bit for bit.
type flowSolve struct {
	policy   *flow.Policy
	full     bool
	src, dst topology.NodeID
}

// prefRow memoizes one container's preference build in assignGroup: the
// inputs it was derived from (original server, feasible server set,
// anchored peer servers per incident flow) and the derived outputs. When
// the inputs recur unchanged in a later iteration, the outputs are reused
// verbatim — containers untouched by the previous round's matching cost
// nothing to re-rank.
type prefRow struct {
	orig      topology.NodeID
	feasible  []int
	peerSrv   []topology.NodeID
	propPrefs []int
	truncated bool // propPrefs is a cut row (rackrows.go)
	votes     []int
}

// runState is the dirty-set bookkeeping for ONE Schedule call. It lives on
// the stack of the call, never on the HitScheduler, so a scheduler value
// can be reused across requests exactly as before.
type runState struct {
	solves map[flow.ID]*flowSolve
	prefs  map[cluster.ContainerID]*prefRow
	// matchers holds one slab-reusing stable matcher per container group
	// (reduces, maps): successive iterations of the joint loop re-match the
	// same group, so the dense scratch — and, when nothing changed, the
	// previous matching itself — carries over. Only used when incremental()
	// is on; the DisableIncremental parity path calls stablematch.Match
	// directly every time.
	matchers [2]*stablematch.Matcher
	// rows caches per-peer-server distance rows across assignGroup calls.
	// Rows are pure functions of (topology, liveness), so the cache is keyed
	// by both versions and dropped whole on any change — the structural
	// oracle recomputes a row per DistRow call (that is what keeps ITS
	// footprint O(V)), so this call-scoped memo is what bounds the build at
	// O(distinct peers × V) per Schedule instead of per group per iteration.
	// Incremental-only: the DisableIncremental parity path refetches.
	rows        map[topology.NodeID][]int32
	rowsTopoVer uint64
	rowsLiveVer uint64
	// rackDists caches Oracle.RackDists rows per peer server for the
	// rack-bucket build. That build runs only on healthy fabrics, whose
	// distances never change, so the cache needs no version key.
	rackDists map[topology.NodeID][]int32
	// hostPos is compactHosts' scratch: one slot per server, all -1
	// between calls.
	hostPos []int32
}

func newRunState() *runState {
	return &runState{
		solves: make(map[flow.ID]*flowSolve),
		prefs:  make(map[cluster.ContainerID]*prefRow),
	}
}

// record stores the outcome of an Algorithm-1 solve for f.
func (st *runState) record(f *flow.Flow, loc flow.Locator, p *flow.Policy, info controller.SolveInfo) {
	if p == nil {
		return
	}
	st.solves[f.ID] = &flowSolve{
		policy: p,
		full:   info.FullStages,
		src:    loc.ServerOf(f.Src),
		dst:    loc.ServerOf(f.Dst),
	}
}

// cleanFlow reports whether re-running Algorithm 1 for f is provably a
// no-op this instant: the last solve this run used unfiltered stage lists,
// both endpoints still sit on the servers that solve saw, and the fabric
// currently has headroom for f.Rate on every switch — so a fresh solve
// would see identical unfiltered stages and return the identical route,
// and OptimizeInstalledDetailed would decline to act exactly as it did
// before. Segment cost being load-independent (Eq. 2) is what makes the
// proof go through: load changes can only alter a solve through the
// feasibility filter, which FitsEverywhere shows is inert for this rate.
func (st *runState) cleanFlow(req *scheduler.Request, f *flow.Flow, loc flow.Locator) bool {
	rec := st.solves[f.ID]
	if rec == nil || !rec.full {
		return false
	}
	if loc.ServerOf(f.Src) != rec.src || loc.ServerOf(f.Dst) != rec.dst {
		return false
	}
	return req.Controller.FitsEverywhere(f.Rate)
}

// scheduleInitialWave runs the full joint optimization loop over the
// round's working flow set (req.Flows minus any degraded-mode exclusions).
func (h *HitScheduler) scheduleInitialWave(req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow) error {
	loc := req.Locator()
	st := newRunState()
	best, err := req.Controller.TotalCost(flows, loc)
	if err != nil {
		return err
	}
	bestSnap := req.Cluster.Snapshot()

	for iter := 0; iter < h.maxIterations(); iter++ {
		// Phase 1 — network policy optimization (Algorithm 1 per flow).
		// From iteration 2 on, flows whose endpoints the matching did not
		// move (and whose last solve was over unfiltered stages, still
		// unfiltered now) are clean: re-solving is a proven no-op, so the
		// sweep touches only the dirty set.
		if !h.DisablePolicyOpt {
			for _, f := range flows {
				if h.incremental() && st.cleanFlow(req, f, loc) {
					continue
				}
				_, opt, info, err := req.Controller.OptimizeInstalledDetailed(f, loc)
				if err != nil {
					return err
				}
				st.record(f, loc, opt, info)
			}
		}

		// Phase 2 — task assignment via preference matrix + stable matching
		// (Algorithm 2).
		if err := h.assign(req, movable, flows, loc, st); err != nil {
			return err
		}

		// Phase 3 — policies must follow the new placement (type templates
		// change when endpoints move racks).
		if err := h.reinstallPolicies(req, flows, loc, st); err != nil {
			return err
		}

		cost, err := req.Controller.TotalCost(flows, loc)
		if err != nil {
			return err
		}
		if cost < best*(1-h.epsilon()) {
			best = cost
			bestSnap = req.Cluster.Snapshot()
			continue
		}
		// No material improvement: restore the best placement seen and stop.
		// Restoring moves endpoints, which cleanFlow detects per flow by
		// comparing servers — no explicit invalidation needed.
		if cost > best {
			if err := req.Cluster.Restore(bestSnap); err != nil {
				return err
			}
			if err := h.reinstallPolicies(req, flows, loc, st); err != nil {
				return err
			}
		}
		break
	}
	return nil
}

// reinstallPolicies recomputes and installs the best policy for every flow
// under the current placement. With policy optimization disabled it installs
// fresh random policies matching the (possibly new) type templates. Clean
// flows (cleanFlow) reinstall their recorded solve output without paying
// for the DP again; the uninstall/install sequence itself always runs in
// full flow order, so switch loads accumulate in the historical order.
func (h *HitScheduler) reinstallPolicies(req *scheduler.Request, flows []*flow.Flow, loc flow.Locator, st *runState) error {
	// Release the old routes first: stale switch loads from pre-move policies
	// must not make the post-move optimum look infeasible.
	for _, f := range flows {
		req.Controller.Uninstall(f.ID)
	}
	for _, f := range flows {
		var p *flow.Policy
		var err error
		switch {
		case h.DisablePolicyOpt:
			p, err = req.Controller.RandomPolicy(f, loc, req.Rand)
		case h.incremental() && st.cleanFlow(req, f, loc):
			p = st.solves[f.ID].policy
		default:
			var info controller.SolveInfo
			p, info, err = req.Controller.OptimizePolicyDetailed(f, loc)
			if err == nil {
				st.record(f, loc, p, info)
			}
		}
		if err != nil {
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			return fmt.Errorf("core: reinstall flow %d: %w", f.ID, err)
		}
	}
	return nil
}

// prefEntry orders container/server preference pairs.
type prefEntry struct {
	idx   int
	grade float64
}

// assignScratch pools the per-container working buffers of the preference
// build, so a 10k-server wave does not allocate (and GC) a fresh grade
// vector, bucket table, and permutation scratch for every container.
// Buffer identity never leaks into results — every buffer is either fully
// overwritten or explicitly reset before use — so pooling cannot perturb
// determinism.
type assignScratch struct {
	grades   []float64
	slot     []int32
	distinct []float64
	sorted   []float64
	slotRank []int32
	counts   []int32
	offs     []int32

	// Rack-bucket row build (rackrows.go). peerSlot holds one entry per
	// server, all -1 between rows.
	accCost  []float64
	peerCost []float64
	peerSlot []int32
	peerOf   []int32
	dpeers   []int32
	drows    [][]int32
	items    []rowItem
	heap     []mergeCursor

	// htabKeys/htabVals form a flat open-addressed hash table (linear
	// probing, val -1 = empty) mapping grade bit patterns to bucket slots.
	// It replaces a map[uint64]int32 on the ranking hot path: at 10k
	// servers the build probes it ~2M times per wave, and the flat probe is
	// several times cheaper than a runtime map access. Lookup/insert only,
	// never iterated, so determinism is untouched.
	htabKeys []uint64
	htabVals []int32
	htabMask uint64
}

var assignScratchPool = sync.Pool{New: func() any { return new(assignScratch) }}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// htabReset sizes the flat hash table and marks every slot empty. The table
// tracks DISTINCT grades — a few hundred even on 10k-server rows — so it
// starts small (L1-resident) regardless of row length and doubles via
// htabGrow when the caller's distinct count passes half the slots.
func (sc *assignScratch) htabReset(n int) {
	sz := 16
	for sz < 2*n && sz < 1024 {
		sz <<= 1
	}
	if cap(sc.htabKeys) < sz {
		sc.htabKeys = make([]uint64, sz)
		sc.htabVals = make([]int32, sz)
	}
	sc.htabKeys = sc.htabKeys[:sz]
	sc.htabVals = sc.htabVals[:sz]
	for i := range sc.htabVals {
		sc.htabVals[i] = -1
	}
	sc.htabMask = uint64(sz - 1)
}

// htabGrow doubles the table and reinserts every distinct grade; slot j of
// sc.distinct is value j, so the rebuild needs no saved keys.
func (sc *assignScratch) htabGrow() {
	sz := 2 * len(sc.htabVals)
	sc.htabKeys = make([]uint64, sz)
	sc.htabVals = make([]int32, sz)
	for i := range sc.htabVals {
		sc.htabVals[i] = -1
	}
	sc.htabMask = uint64(sz - 1)
	for j, g := range sc.distinct {
		sc.htabPut(math.Float64bits(g), int32(j))
	}
}

// htabPut returns the slot stored for key b, inserting next if absent;
// inserted reports which happened.
func (sc *assignScratch) htabPut(b uint64, next int32) (slot int32, inserted bool) {
	h := (b * 0x9e3779b97f4a7c15) & sc.htabMask
	for {
		v := sc.htabVals[h]
		if v < 0 {
			sc.htabKeys[h] = b
			sc.htabVals[h] = next
			return next, true
		}
		if sc.htabKeys[h] == b {
			return v, false
		}
		h = (h + 1) & sc.htabMask
	}
}

// htabGet returns the slot for key b, which must be present.
func (sc *assignScratch) htabGet(b uint64) int32 {
	h := (b * 0x9e3779b97f4a7c15) & sc.htabMask
	for {
		if sc.htabVals[h] >= 0 && sc.htabKeys[h] == b {
			return sc.htabVals[h]
		}
		h = (h + 1) & sc.htabMask
	}
}

// stableRankDesc writes vals permuted into stable descending-grade order
// into out (all three slices share one length). It produces exactly the
// permutation sort.SliceStable yields under a grade-descending comparator:
// grades are bucketed by exact float64 value — −0 normalized to +0, since
// neither zero orders before the other under `>` — and buckets are emitted
// largest-grade-first with input order preserved inside each. One counting
// pass replaces the comparator callbacks, so a row costs O(n + k log k) for
// k distinct grades (k ≈ racks on the anchored fast path). Returns false on
// a NaN grade — never produced by finite rates × integer distances, but the
// comparator algorithm defines that case, so the caller must fall back to
// sortDescFallback.
func (sc *assignScratch) stableRankDesc(grades []float64, vals, out []int) bool {
	n := len(grades)
	slot := growI32(sc.slot, n)
	sc.slot = slot
	sc.distinct = sc.distinct[:0]
	sc.htabReset(n)
	for i, g := range grades {
		if math.IsNaN(g) {
			return false
		}
		b := math.Float64bits(g)
		if b == 1<<63 { // -0: same bucket as +0
			b = 0
		}
		s, inserted := sc.htabPut(b, int32(len(sc.distinct)))
		if inserted {
			sc.distinct = append(sc.distinct, math.Float64frombits(b))
			if 2*len(sc.distinct) > len(sc.htabVals) {
				sc.htabGrow()
			}
		}
		slot[i] = s
	}
	k := len(sc.distinct)
	sorted := append(sc.sorted[:0], sc.distinct...)
	sc.sorted = sorted
	sort.Float64s(sorted) // ascending; descending rank = k-1-j
	slotRank := growI32(sc.slotRank, k)
	sc.slotRank = slotRank
	for j, g := range sorted {
		slotRank[sc.htabGet(math.Float64bits(g))] = int32(k - 1 - j)
	}
	counts := growI32(sc.counts, k)
	sc.counts = counts
	for r := range counts {
		counts[r] = 0
	}
	for _, s := range slot {
		counts[slotRank[s]]++
	}
	offs := growI32(sc.offs, k)
	sc.offs = offs
	var sum int32
	for r, c := range counts {
		offs[r] = sum
		sum += c
	}
	for i := 0; i < n; i++ {
		r := slotRank[slot[i]]
		out[offs[r]] = vals[i]
		offs[r]++
	}
	return true
}

// sortDescFallback is the comparator-defined path stableRankDesc defers to
// on NaN grades: literally the original sort.SliceStable build.
func sortDescFallback(grades []float64, vals, out []int) {
	entries := make([]prefEntry, len(grades))
	for i := range grades {
		entries[i] = prefEntry{idx: vals[i], grade: grades[i]}
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].grade > entries[b].grade })
	for i, e := range entries {
		out[i] = e.idx
	}
}

// nearestByRow is netstate.(*Oracle).NearestByDist over an already-fetched
// distance row: same compare, same unreachable skip, same lower-ID
// tie-break. The incremental preference build uses it so one row fetch
// serves both the anchored cost sums and the vote; the DisableIncremental
// parity path keeps calling the oracle, pinning this replica against it.
func nearestByRow(row []int32, cands []topology.NodeID) topology.NodeID {
	best := topology.None
	bestD := int32(-1)
	for _, c := range cands {
		d := row[c]
		if d < 0 {
			continue
		}
		if bestD == -1 || d < bestD || (d == bestD && c < best) {
			bestD, best = d, c
		}
	}
	return best
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalNodeIDs(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assign performs one round of the Tasks Assignment Algorithm (Algorithm 2).
//
// Map and Reduce containers are matched in alternating sub-rounds — reduces
// first (shuffle destinations chase their sources), then maps. Within a
// sub-round every flow endpoint outside the group is anchored at its current
// server, which makes each group member's cost independent of its peers'
// simultaneous moves: exactly the independence §5.1.3's separability argument
// licenses, turned into coordinate descent. Utilities assume the flow's
// route is re-optimized after the move (the paper's grades "will be updated
// when rescheduling a new routing path"), so they reduce to rate ×
// hop-distance deltas against the anchored peer.
func (h *HitScheduler) assign(req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow, loc flow.Locator, st *runState) error {
	var reduces, maps []scheduler.Task
	for _, t := range movable {
		if t.Kind == workload.ReduceTask {
			reduces = append(reduces, t)
		} else {
			maps = append(maps, t)
		}
	}
	for gi, group := range [][]scheduler.Task{reduces, maps} {
		if len(group) == 0 {
			continue
		}
		if err := h.assignGroup(req, group, flows, loc, st, gi); err != nil {
			return err
		}
	}
	return nil
}

// parallelThreshold is the preference-matrix work size (containers ×
// servers) above which assignGroup fans out across containers. Small groups
// stay sequential: goroutine fan-out costs more than the loops it saves.
const parallelThreshold = 4096

// demandClass shares per-demand facts across the containers of one group.
// Every group container stands unplaced when feasibility is computed, so
// CanHost depends only on the container's resource demand: containers with
// identical demands see the identical feasible-server set, candidate list,
// and — candidates being the only per-container input — identical
// nearest-feasible votes per anchored peer server. One O(V) scan per
// distinct demand replaces one per container.
type demandClass struct {
	feas  []int
	cands []topology.NodeID       // per-server build only
	votes map[topology.NodeID]int // anchored peer server → voted server index, -1 = none

	// Rack-bucket build only (rackrows.go): feas grouped by rack.
	rackOff []int32
	rackSrv []int32

	// seen/seenSame cache the last memoized feasible list compared against
	// feas: a class's containers memoized one shared slice, so the O(V)
	// compare runs once per group instead of once per container.
	seen     []int
	seenSame bool
}

func newDemandClass(clu *cluster.Cluster, rep cluster.ContainerID, rb *rackBuild) *demandClass {
	servers := clu.Servers()
	cl := &demandClass{feas: make([]int, 0, len(servers)), votes: make(map[topology.NodeID]int)}
	for si, s := range servers {
		if clu.CanHost(s, rep) {
			cl.feas = append(cl.feas, si)
		}
	}
	if rb != nil {
		rb.groupByRack(cl)
		return cl
	}
	cl.cands = make([]topology.NodeID, len(cl.feas))
	for k, si := range cl.feas {
		cl.cands[k] = servers[si]
	}
	return cl
}

// sameFeasible reports whether a memoized feasible list equals the class's.
func (cl *demandClass) sameFeasible(prev []int) bool {
	if len(prev) != len(cl.feas) {
		return false
	}
	if len(prev) == 0 {
		return true
	}
	if len(cl.seen) == 0 || &cl.seen[0] != &prev[0] {
		cl.seen, cl.seenSame = prev, equalInts(prev, cl.feas)
	}
	return cl.seenSame
}

// assignGroup matches one kind-homogeneous container group onto servers.
// gi selects the group's slab-reusing matcher in st (0 = reduces, 1 = maps).
func (h *HitScheduler) assignGroup(req *scheduler.Request, group []scheduler.Task, flows []*flow.Flow, loc flow.Locator, st *runState, gi int) error {
	clu := req.Cluster
	servers := clu.Servers()
	containers := make([]cluster.ContainerID, len(group))
	for i, t := range group {
		containers[i] = t.Container
	}
	oracle := req.Controller.Oracle()

	// Incident flows and anchored peer servers per container.
	incident := make([][]*flow.Flow, len(containers))
	peerSrv := make([][]topology.NodeID, len(containers))
	for i, c := range containers {
		for _, f := range flow.IncidentFlows(c, flows) {
			peer := f.Src
			if peer == c {
				peer = f.Dst
			}
			ps := loc.ServerOf(peer)
			if ps == topology.None {
				continue
			}
			incident[i] = append(incident[i], f)
			peerSrv[i] = append(peerSrv[i], ps)
		}
	}

	// Release the whole group's demand before computing feasibility, so that
	// pairwise exchanges between otherwise-full servers stay reachable — the
	// matching, not the incumbent placement, decides who lands where.
	original := make([]topology.NodeID, len(containers))
	for ci, c := range containers {
		original[ci] = clu.Container(c).Server()
		if err := clu.Unplace(c); err != nil {
			return err
		}
	}

	// Rack-bucket build (rackrows.go): when every server hangs off exactly
	// one access switch and the fabric is healthy, each container's row
	// costs O(racks + peers + K) instead of O(servers). DisableIncremental
	// keeps the per-server build as the reference the parity tests compare
	// against.
	topo := clu.Topology()
	var rb *rackBuild
	if !h.DisableIncremental && topo.ServersSingleHomed() && topo.AllAlive() {
		rb = newRackBuild(clu, oracle.Racks(), st)
	}

	// Demand classes: the group is fully unplaced here, so feasibility is a
	// function of the demand vector alone and is scanned once per class.
	classes := make(map[cluster.Resources]*demandClass, 2)
	classOf := make([]*demandClass, len(containers))
	for ci, c := range containers {
		d := clu.Container(c).Demand
		cl := classes[d]
		if cl == nil {
			cl = newDemandClass(clu, c, rb)
			classes[d] = cl
		}
		classOf[ci] = cl
	}

	// Dirty check (run before the shared tables are built, so a fully clean
	// round pays for neither rows nor votes): a container whose original
	// server, feasible set, and anchored peers all recur from the previous
	// round would rebuild the exact same row — reuse it.
	useMemo := h.incremental()
	memoHit := make([]*prefRow, len(containers))

	// Group-level shared tables, built sequentially (deterministic oracle
	// call order) and only read by the fan-out below:
	//   distances     — the rack-bucket build fetches one O(racks) row per
	//                   distinct anchored peer server (memoized in st);
	//                   the per-server build one O(V) DistRow, memoized
	//                   across groups and iterations in st (keyed by
	//                   topology/liveness version) on the incremental path;
	//   cl.votes[ps]  — the class's nearest-feasible vote for that peer
	//                   (Algorithm 1 lines 11–13), a function of (peer,
	//                   candidate list) only. The rack-bucket build reads
	//                   it off the class's rack tables, the incremental
	//                   per-server build off the fetched row with the
	//                   oracle's own compare and lower-ID tie-break; the
	//                   DisableIncremental parity path asks the oracle
	//                   itself, pinning both replicas against NearestByDist.
	var rows map[topology.NodeID][]int32
	if rb == nil {
		if useMemo {
			tv, lv := topo.Version(), topo.LivenessVersion()
			if st.rows == nil || st.rowsTopoVer != tv || st.rowsLiveVer != lv {
				st.rows = make(map[topology.NodeID][]int32)
				st.rowsTopoVer, st.rowsLiveVer = tv, lv
			}
			rows = st.rows
		} else {
			rows = make(map[topology.NodeID][]int32)
		}
	}
	for ci, c := range containers {
		cl := classOf[ci]
		if useMemo {
			if prev := st.prefs[c]; prev != nil && prev.orig == original[ci] &&
				cl.sameFeasible(prev.feasible) && equalNodeIDs(prev.peerSrv, peerSrv[ci]) {
				memoHit[ci] = prev
				continue
			}
		}
		for _, ps := range peerSrv[ci] {
			if rb != nil {
				rb.fetch(oracle, ps)
				if _, ok := cl.votes[ps]; !ok {
					cl.votes[ps] = rb.vote(cl, ps)
				}
				continue
			}
			if _, ok := rows[ps]; !ok {
				rows[ps] = oracle.DistRow(ps)
			}
			if _, ok := cl.votes[ps]; !ok {
				var best topology.NodeID
				if useMemo {
					best = nearestByRow(rows[ps], cl.cands)
				} else {
					best = oracle.NearestByDist(ps, cl.cands)
				}
				cl.votes[ps] = clu.ServerIndex(best)
			}
		}
	}

	// Per-container preference build (Algorithm 1's preference-matrix rows
	// plus Eq. 10 proposer rankings). Every container's pass writes only its
	// own index, so the fan-out is deterministic: results are identical to
	// the sequential loop regardless of worker count, and the merge into the
	// grade rows below happens column-by-column with no shared writes. The
	// shared tables above (rows, rb, classes, original) are read-only
	// during the fan-out, and st.prefs is written only after it returns.
	// The workers never call the oracle, which is not safe for concurrent
	// use: every row they read was fetched above. A worker that called it
	// would race on the oracle's caches, which
	// `go test -race -run TestRackRowWave10k ./internal/core` reports.
	//
	// Cost sums always accumulate in flow order, keeping the floats
	// bit-identical to the ungrouped per-flow loop.
	propPrefs := make([][]int, len(containers))
	truncated := make([]bool, len(containers))
	votes := make([][]int, len(containers)) // per incident flow: voted server index, -1 = none
	prefRows := make([]*prefRow, len(containers))
	limit := h.rowLimit()
	workers := 0 // GOMAXPROCS
	if len(containers)*len(servers) < parallelThreshold {
		workers = 1
	}
	// Every write below is addressed by ci (taalint mergeorder contract):
	// workers own disjoint slots, so the merge order is the index order.
	err := parallel.ForEach(len(containers), workers, func(ci int) error {
		c := containers[ci]
		cl := classOf[ci]
		if len(cl.feas) == 0 {
			return fmt.Errorf("core: %w for container %d", scheduler.ErrNoFeasibleServer, c)
		}
		if prev := memoHit[ci]; prev != nil {
			propPrefs[ci] = prev.propPrefs
			truncated[ci] = prev.truncated
			votes[ci] = prev.votes
			prefRows[ci] = prev
			return nil
		}

		sc := assignScratchPool.Get().(*assignScratch)
		defer assignScratchPool.Put(sc)

		// Proposer preferences: servers by utility (Eq. 10) = current cost
		// minus candidate cost, descending.
		var prop []int
		if rb != nil {
			prop, truncated[ci] = rb.row(sc, cl, incident[ci], peerSrv[ci], clu.ServerIndex(original[ci]), limit)
		} else {
			prop = directRow(sc, cl, incident[ci], peerSrv[ci], rows, servers, clu.ServerIndex(original[ci]))
		}
		propPrefs[ci] = prop

		// Fan the class's per-peer votes out to this container's flows.
		vts := make([]int, len(incident[ci]))
		for k, ps := range peerSrv[ci] {
			vts[k] = cl.votes[ps]
		}
		votes[ci] = vts

		if useMemo {
			prefRows[ci] = &prefRow{
				orig:      original[ci],
				feasible:  cl.feas,
				peerSrv:   peerSrv[ci],
				propPrefs: prop,
				truncated: truncated[ci],
				votes:     vts,
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if useMemo {
		for ci, c := range containers {
			if prefRows[ci] != nil {
				st.prefs[c] = prefRows[ci]
			}
		}
	}

	// Deterministic merge of the votes into the host-preference grades.
	// Votes are sparse — at most one server per incident flow — so only
	// voted servers carry a grade row; every other server's grades are all
	// zero, and a stable descending sort of an all-equal row is the identity
	// permutation, shared once below instead of allocated per server.
	gradeRows := make(map[int][]float64, len(containers))
	for ci := range containers {
		for k, f := range incident[ci] {
			if si := votes[ci][k]; si >= 0 {
				row := gradeRows[si]
				if row == nil {
					row = make([]float64, len(containers))
					gradeRows[si] = row
				}
				row[ci] += f.Rate
			}
		}
	}
	identity := make([]int, len(containers))
	for ci := range identity {
		identity[ci] = ci
	}
	hostPref := func(sc *assignScratch, si int) []int {
		row := gradeRows[si]
		if row == nil {
			return identity
		}
		out := make([]int, len(containers))
		if !sc.stableRankDesc(row, identity, out) {
			sortDescFallback(row, identity, out)
		}
		return out
	}

	loads := make([]float64, len(containers))
	for ci, c := range containers {
		loads[ci] = float64(clu.Container(c).Demand.CPU)
		if loads[ci] <= 0 {
			loads[ci] = 1 // zero-CPU containers still occupy a scheduling slot
		}
	}

	place := func(ci int, s topology.NodeID) error {
		c := containers[ci]
		if s != topology.None {
			if err := clu.Place(c, s); err == nil {
				return nil
			}
		}
		// Memory (the unmodeled dimension) blocked the slot: fall back to the
		// original server, then any feasible one.
		if orig := original[ci]; orig != topology.None && orig != s {
			if err := clu.Place(c, orig); err == nil {
				return nil
			}
		}
		for _, alt := range clu.Candidates(c) {
			if err := clu.Place(c, alt); err == nil {
				return nil
			}
		}
		return fmt.Errorf("core: %w for container %d after matching", scheduler.ErrNoFeasibleServer, c)
	}

	if h.DisableStableMatching {
		// Ablation: greedy sequential best-utility placement.
		for ci, c := range containers {
			placed := false
			for _, si := range propPrefs[ci] {
				if clu.CanHost(servers[si], c) {
					if err := clu.Place(c, servers[si]); err == nil {
						placed = true
						break
					}
				}
			}
			if !placed {
				if err := place(ci, original[ci]); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// The matching instance. With every row complete it spans all servers,
	// exactly as before; once a row is cut it holds only the servers some
	// row names (compactHosts), and hosts maps its indices back.
	sc := assignScratchPool.Get().(*assignScratch)
	defer assignScratchPool.Put(sc)
	for {
		var hosts []int // instance host index → server index
		prefs := propPrefs
		if slices.Contains(truncated, true) {
			hosts, prefs = st.compactHosts(len(servers), propPrefs)
		} else {
			hosts = make([]int, len(servers))
			for si := range hosts {
				hosts[si] = si
			}
		}
		hostPrefs := make([][]int, len(hosts))
		capacity := make([]float64, len(hosts)) // CPU is the binding dimension
		for hi, si := range hosts {
			hostPrefs[hi] = hostPref(sc, si)
			capacity[hi] = float64(clu.Free(servers[si]).CPU)
		}
		inst := &stablematch.Instance{
			NumProposers:  len(containers),
			NumHosts:      len(hosts),
			ProposerPrefs: prefs,
			HostPrefs:     hostPrefs,
			Load:          loads,
			Capacity:      capacity,
		}
		// Incremental runs keep one Matcher per group alive for the whole
		// Schedule call: scratch slabs carry over, and an iteration whose
		// preference build fully memo-hit replays the previous stable
		// matching (provably identical — deferred acceptance is
		// deterministic). The DisableIncremental path matches from scratch;
		// parity tests pin the two bit-equal.
		var res *stablematch.Result
		if h.incremental() {
			if st.matchers[gi] == nil {
				st.matchers[gi] = &stablematch.Matcher{}
			}
			res, err = st.matchers[gi].Match(inst)
		} else {
			res, err = stablematch.Match(inst)
		}
		if err != nil {
			return err
		}

		// A cut proposer that ends Unmatched ran off its row, so from that
		// proposal on the run may differ from the full-row one. Give those
		// proposers full rows and match again; once no cut proposer ends
		// Unmatched, none ran off, and every proposal was the full run's.
		var redo []int
		for ci, hi := range res.HostOf {
			if hi == stablematch.Unmatched && truncated[ci] {
				redo = append(redo, ci)
			}
		}
		if len(redo) == 0 {
			for ci, hi := range res.HostOf {
				target := original[ci]
				if hi != stablematch.Unmatched {
					target = servers[hosts[hi]]
				}
				if err := place(ci, target); err != nil {
					return err
				}
			}
			return nil
		}
		if h.onRebuild != nil {
			h.onRebuild(len(redo))
		}
		for _, ci := range redo {
			propPrefs[ci], truncated[ci] = rb.row(sc, classOf[ci], incident[ci], peerSrv[ci], clu.ServerIndex(original[ci]), 0)
			if useMemo {
				st.prefs[containers[ci]] = &prefRow{
					orig:      original[ci],
					feasible:  classOf[ci].feas,
					peerSrv:   peerSrv[ci],
					propPrefs: propPrefs[ci],
					votes:     votes[ci],
				}
			}
		}
	}
}

// directRow is the per-server proposer row: every feasible server graded
// from full distance rows. It serves fabrics the rack-bucket build cannot
// (multi-homed servers, dead nodes) and the DisableIncremental reference.
func directRow(sc *assignScratch, cl *demandClass, flows []*flow.Flow, peers []topology.NodeID, rows map[topology.NodeID][]int32, servers []topology.NodeID, orig int) []int {
	// Distinct anchored peer servers in first-appearance order; peerOf[k]
	// indexes the per-peer rows for incident flow k.
	rowOf := make([][]int32, 0, len(peers))
	peerIdx := make(map[topology.NodeID]int, len(peers))
	peerOf := make([]int, len(peers))
	for k, ps := range peers {
		pi, ok := peerIdx[ps]
		if !ok {
			pi = len(rowOf)
			peerIdx[ps] = pi
			rowOf = append(rowOf, rows[ps])
		}
		peerOf[k] = pi
	}

	// Anchored re-routed cost of hosting this container on server s:
	// Σ rate × dist(peer, s) — the flow cost after Algorithm 1 re-optimizes
	// the route for the new endpoint. Accumulated in flow order over the
	// prefetched rows.
	costAt := func(si int) float64 {
		s := servers[si]
		var cost float64
		for k, f := range flows {
			d := rowOf[peerOf[k]][s]
			if d < 0 {
				continue
			}
			cost += f.Rate * float64(d)
		}
		return cost
	}
	curCost := costAt(orig)
	grades := growF64(sc.grades, len(cl.feas))
	sc.grades = grades
	for i, si := range cl.feas {
		grades[i] = curCost - costAt(si)
	}
	prop := make([]int, len(cl.feas))
	if !sc.stableRankDesc(grades, cl.feas, prop) {
		sortDescFallback(grades, cl.feas, prop)
	}
	return prop
}

// scheduleSubsequentWave implements §5.3.2: reduce placements are fixed, so
// each shuffle flow's destination is static; maps are placed greedily in
// descending shuffle-output order onto the feasible server with the lowest
// added communication delay, then policies are optimized.
func (h *HitScheduler) scheduleSubsequentWave(req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow) error {
	loc := req.Locator()
	tasks := append([]scheduler.Task(nil), movable...)
	scheduler.SortTasksByShuffleOutput(tasks)
	oracle := req.Controller.Oracle()

	for _, t := range tasks {
		c := t.Container
		incident := flow.IncidentFlows(c, flows)
		best := topology.None
		bestCost := 0.0
		for _, s := range req.Cluster.Candidates(c) {
			var cost float64
			for _, f := range incident {
				var peer cluster.ContainerID
				if f.Src == c {
					peer = f.Dst
				} else {
					peer = f.Src
				}
				ps := loc.ServerOf(peer)
				if ps == topology.None {
					continue
				}
				d := oracle.Dist(s, ps)
				if d < 0 {
					continue
				}
				cost += f.Rate * float64(d)
			}
			if best == topology.None || cost < bestCost {
				best, bestCost = s, cost
			}
		}
		if best == topology.None {
			return fmt.Errorf("core: %w for map container %d", scheduler.ErrNoFeasibleServer, c)
		}
		// The container was randomly placed during initialization; move it.
		if err := req.Cluster.Place(c, best); err != nil {
			return err
		}
	}
	return h.reinstallPolicies(req, flows, loc, newRunState())
}
