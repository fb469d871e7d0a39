// Package controller implements the centralized network-policy controller
// of §6/§7.1: it tracks the aggregate flow rate loaded onto every switch,
// installs and removes per-flow policies (the ordered, typed switch lists of
// §3), computes the candidate switch sets of Eq. 4, and performs the Policy
// Optimization Algorithm (Algorithm 1) — finding, for one flow, the
// minimum-cost route through switches of the required types that respects
// every switch's remaining capacity.
package controller

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/topology"
)

// Sentinel errors for the two infeasibility classes Algorithm 1 can hit.
// Every constructor wraps them with %w, so callers (core's degraded mode,
// the fault reactor) branch with errors.Is instead of string matching — a
// contract taalint's errcompare check now enforces across every decision
// package.
var (
	// ErrNoFeasibleSwitch: some required switch type has no candidate with
	// spare capacity (all saturated, or all of that type dead).
	ErrNoFeasibleSwitch = errors.New("no feasible switch")
	// ErrNoFeasibleRoute: no stage assignment yields a finite-cost route,
	// or the endpoint servers are disconnected.
	ErrNoFeasibleRoute = errors.New("no feasible route")
)

// Controller is the centralized policy manager. Like the oracle it owns,
// a Controller is not safe for concurrent use: one goroutine, the one
// that drives the scheduler, makes every call.
//
// Installed policies are shared, not owned: Install keeps the caller's
// pointer, which flow.Policy's immutability makes safe. Per-flow state
// lives in tables indexed by flow ID, which assumes IDs are numbered
// densely from 0 — as scheduler.NewJobRequest, both simulator loops and
// hitplugin do. The tables grow to the largest ID installed and never
// shrink, so a long-lived hitplugin's controller holds 16 B for every
// flow it has ever numbered.
type Controller struct {
	topo   *topology.Topology
	oracle *netstate.Oracle
	cost   *flow.CostModel
	// policies[id] is flow id's installed policy (nil when none) and
	// rates[id] the rate it was installed with; n counts the non-nil
	// entries.
	policies []*flow.Policy
	rates    []float64
	n        int
	// load is the aggregate installed rate per node, indexed by NodeID
	// (dense: node IDs are compact). Only switch entries are ever nonzero.
	load []float64

	// loadHigh is a high-water mark over every switch load: raised by
	// Install, kept by Uninstall (which only lowers loads). NaN once a NaN
	// load appears, which disables roomEverywhere.
	loadHigh float64
	// capMin is the least finite switch capacity (+Inf when none is
	// finite, NaN when any is NaN) as of topology version capVersion.
	capMin     float64
	capVersion uint64
	capValid   bool

	// feasible is RandomPolicy's per-stage filter buffer: one buffer
	// serves every stage of every call, so a 10k-flow initialization does
	// not allocate a fresh slice per stage. Only the chosen switch ID
	// escapes into the policy.
	feasible []topology.NodeID
}

// New returns an empty controller over the topology, backed by a fresh
// memoizing netstate oracle.
func New(topo *topology.Topology) *Controller {
	return NewWithOracle(topo, netstate.New(topo))
}

// NewWithOracle returns an empty controller sharing the given oracle.
func NewWithOracle(topo *topology.Topology, o *netstate.Oracle) *Controller {
	return &Controller{
		topo:   topo,
		oracle: o,
		cost:   flow.NewCostModelWithOracle(o),
		load:   make([]float64, topo.NumNodes()),
	}
}

// Topology returns the managed topology.
func (c *Controller) Topology() *topology.Topology { return c.topo }

// Oracle returns the shared network-state oracle every scheduler queries.
func (c *Controller) Oracle() *netstate.Oracle { return c.oracle }

// CostModel returns the controller's cost model.
func (c *Controller) CostModel() *flow.CostModel { return c.cost }

// Policy returns the installed policy for a flow — the pointer Install
// was given — or nil.
func (c *Controller) Policy(id flow.ID) *flow.Policy {
	if id < 0 || int(id) >= len(c.policies) {
		return nil
	}
	return c.policies[id]
}

// Policies returns the installed policies keyed by flow ID, in a map it
// builds afresh on every call; the policies themselves are shared and
// must not be mutated.
func (c *Controller) Policies() map[flow.ID]*flow.Policy {
	out := make(map[flow.ID]*flow.Policy, c.n)
	for id, p := range c.policies {
		if p != nil {
			out[flow.ID(id)] = p
		}
	}
	return out
}

// NumPolicies returns the number of installed policies.
func (c *Controller) NumPolicies() int { return c.n }

// Load returns the aggregate rate currently routed through switch w
// (Σ_{p_k ∈ A(w)} f_k.rate). Unknown node IDs read as zero.
func (c *Controller) Load(w topology.NodeID) float64 {
	if w < 0 || int(w) >= len(c.load) {
		return 0
	}
	return c.load[w]
}

// selfLoad returns the rate flow id already contributes to switch w, so
// feasibility checks do not double-count a flow being rerouted.
func (c *Controller) selfLoad(id flow.ID, w topology.NodeID) float64 {
	p := c.Policy(id)
	if p == nil {
		return 0
	}
	var total float64
	for _, sw := range p.List {
		if sw == w {
			total += c.rates[id]
		}
	}
	return total
}

// fits reports whether routing `rate` through w is feasible for flow id,
// ignoring the flow's own present contribution.
func (c *Controller) fits(id flow.ID, w topology.NodeID, rate float64) bool {
	cap := c.topo.Node(w).Capacity
	if math.IsInf(cap, 1) {
		return true
	}
	return c.load[w]-c.selfLoad(id, w)+rate <= cap+1e-9
}

// fitsFn returns fits(id, ·, rate) with the flow's policy and rate looked
// up once instead of per switch — the feasibility scans in OptimizePolicy
// and RandomPolicy call it across every candidate switch. The arithmetic
// (and therefore every accept/reject decision) is identical to fits.
func (c *Controller) fitsFn(id flow.ID, rate float64) func(w topology.NodeID) bool {
	var selfList []topology.NodeID
	var selfRate float64
	if p := c.Policy(id); p != nil {
		selfList = p.List
		selfRate = c.rates[id]
	}
	return func(w topology.NodeID) bool {
		cap := c.topo.Node(w).Capacity
		if math.IsInf(cap, 1) {
			return true
		}
		var self float64
		for _, sw := range selfList {
			if sw == w {
				self += selfRate
			}
		}
		return c.load[w]-self+rate <= cap+1e-9
	}
}

// roomEverywhere is an O(1) sufficient test that a flow of the given rate
// passes every per-switch capacity check: load[w] - self + rate <= cap +
// 1e-9 for every switch w and any self-load >= 0. IEEE addition and
// subtraction are monotone, so load[w] - self <= loadHigh and cap >=
// capMin give fl(load[w]-self+rate) <= fl(loadHigh+rate) <=
// fl(capMin+1e-9) <= fl(cap+1e-9). A false answer proves nothing; callers
// then run their scan. A NaN rate, load or capacity makes it false.
func (c *Controller) roomEverywhere(rate float64) bool {
	if v := c.topo.Version(); !c.capValid || c.capVersion != v {
		c.capMin = math.Inf(1)
		for _, w := range c.topo.Switches() {
			// math.Min propagates a NaN capacity, which disables the bound.
			c.capMin = math.Min(c.capMin, c.topo.Node(w).Capacity)
		}
		c.capVersion, c.capValid = v, true
	}
	return c.loadHigh+rate <= c.capMin+1e-9
}

// FitsEverywhere reports whether a flow of the given rate fits every
// capacity-limited switch in the fabric with no self-contribution
// discounted — the condition under which Algorithm 1's feasibility filter
// provably keeps every candidate switch for any flow of that rate
// (self-load only adds headroom, and float subtraction of a non-negative
// self term is monotone, so fits() can only be more permissive). The load
// high-water bound answers it in O(1) whenever it can; otherwise it scans
// every switch. Core's dirty-set skip uses this to prove a re-solve would
// see the same unfiltered stage lists as the cached solve.
func (c *Controller) FitsEverywhere(rate float64) bool {
	if c.roomEverywhere(rate) {
		return true
	}
	for _, w := range c.topo.Switches() {
		cap := c.topo.Node(w).Capacity
		if math.IsInf(cap, 1) {
			continue
		}
		if c.load[w]+rate > cap+1e-9 {
			return false
		}
	}
	return true
}

// Install validates and installs a policy for f, replacing any previous
// policy of the same flow and updating switch loads. The controller keeps
// p itself, not a copy (flow.Policy is immutable). Installation fails if
// the policy is not satisfied (type/order check) or any switch lacks
// capacity; on failure the previous policy remains installed.
func (c *Controller) Install(f *flow.Flow, p *flow.Policy) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if p.Flow != f.ID {
		return fmt.Errorf("controller: policy for flow %d installed as flow %d", p.Flow, f.ID)
	}
	if err := p.Satisfied(c.topo); err != nil {
		return err
	}
	// A route through a crashed switch is never installable, regardless of
	// capacity: the liveness-aware constructors can't produce one, but an
	// externally-built or stale policy could.
	for _, w := range p.List {
		if !c.topo.Alive(w) {
			return fmt.Errorf("controller: policy for flow %d routes through dead switch %d", f.ID, w)
		}
	}
	// Feasibility with the old policy's contribution removed. A switch
	// appearing k times in the new list needs k*rate headroom. Routes are a
	// handful of switches, so the per-switch demand accumulates by
	// insertion into a small sorted array (append spills longer lists to
	// the heap). Switches are checked in ascending ID order so the reported
	// violation (and therefore the caller's behavior) never depends on
	// discovery order.
	type needEntry struct {
		w topology.NodeID
		n float64
	}
	var needBuf [8]needEntry
	need := needBuf[:0]
	for _, w := range p.List {
		j := len(need)
		for j > 0 && need[j-1].w > w {
			j--
		}
		if j > 0 && need[j-1].w == w {
			need[j-1].n += f.Rate
			continue
		}
		need = append(need, needEntry{})
		copy(need[j+1:], need[j:])
		need[j] = needEntry{w: w, n: f.Rate}
	}
	for _, e := range need {
		w, n := e.w, e.n
		cap := c.topo.Node(w).Capacity
		if math.IsInf(cap, 1) {
			continue
		}
		if c.load[w]-c.selfLoad(f.ID, w)+n > cap+1e-9 {
			return fmt.Errorf("controller: switch %d over capacity for flow %d (load %.3f, need %.3f, cap %.3f)",
				w, f.ID, c.load[w]-c.selfLoad(f.ID, w), n, cap)
		}
	}
	c.Uninstall(f.ID)
	if n := int(f.ID) + 1 - len(c.policies); n > 0 {
		c.policies = append(c.policies, make([]*flow.Policy, n)...)
		c.rates = append(c.rates, make([]float64, n)...)
	}
	c.policies[f.ID] = p
	c.rates[f.ID] = f.Rate
	c.n++
	for _, w := range p.List {
		c.load[w] += f.Rate
		// A NaN load poisons the mark for good: a NaN mark fails both
		// tests and is never overwritten.
		if l := c.load[w]; l > c.loadHigh || math.IsNaN(l) {
			c.loadHigh = l
		}
	}
	return nil
}

// Uninstall removes a flow's policy and releases its switch load. Unknown
// flows are ignored.
func (c *Controller) Uninstall(id flow.ID) {
	p := c.Policy(id)
	if p == nil {
		return
	}
	rate := c.rates[id]
	for _, w := range p.List {
		c.load[w] -= rate
		if c.load[w] < 1e-12 {
			c.load[w] = 0
		}
	}
	c.policies[id] = nil
	c.rates[id] = 0
	c.n--
}

// Candidates implements Eq. 4: the switches that could replace position i of
// flow id's policy — same type, and enough spare capacity for the flow's
// rate — excluding the incumbent.
func (c *Controller) Candidates(id flow.ID, i int) ([]topology.NodeID, error) {
	p := c.Policy(id)
	if p == nil {
		return nil, fmt.Errorf("controller: no policy for flow %d", id)
	}
	if i < 0 || i >= p.Len() {
		return nil, fmt.Errorf("controller: position %d out of range for flow %d", i, id)
	}
	rate := c.rates[id]
	var out []topology.NodeID
	for _, w := range c.oracle.SwitchesOfType(p.Types[i]) {
		if w == p.List[i] {
			continue
		}
		if c.fits(id, w, rate) {
			out = append(out, w)
		}
	}
	return out, nil
}

// endpointServers resolves a flow's endpoint containers to their hosting
// servers, the one piece of locator plumbing every policy constructor
// shares.
func (c *Controller) endpointServers(f *flow.Flow, loc flow.Locator) (src, dst topology.NodeID, err error) {
	src = loc.ServerOf(f.Src)
	dst = loc.ServerOf(f.Dst)
	if src == topology.None || dst == topology.None {
		return topology.None, topology.None, fmt.Errorf("controller: flow %d has unplaced endpoints", f.ID)
	}
	return src, dst, nil
}

// typeTemplate derives the required switch-type sequence for a flow from
// the shortest path between its endpoint servers, via the oracle's cached
// per-pair template. It returns nil (and no error) for same-server flows,
// which need no policy.
func (c *Controller) typeTemplate(f *flow.Flow, loc flow.Locator) ([]string, error) {
	src, dst, err := c.endpointServers(f, loc)
	if err != nil {
		return nil, err
	}
	types, err := c.oracle.TypeTemplate(src, dst)
	if err != nil {
		return nil, fmt.Errorf("controller: %w: no path between servers %d and %d", ErrNoFeasibleRoute, src, dst)
	}
	return types, nil
}

// RandomPolicy builds the paper's initial state: a policy whose required
// types follow the shortest route's type sequence but whose concrete
// switches are drawn uniformly at random among all switches of each type
// (capacity permitting). This models the topology-unaware configuration the
// optimizer subsequently improves.
func (c *Controller) RandomPolicy(f *flow.Flow, loc flow.Locator, rng *rand.Rand) (*flow.Policy, error) {
	types, err := c.typeTemplate(f, loc)
	if err != nil {
		return nil, err
	}
	p := &flow.Policy{Flow: f.ID, List: make([]topology.NodeID, 0, len(types)), Types: types}
	// When the load bound passes every switch, the filter would keep every
	// candidate: draw from the unfiltered list, the same RNG draw.
	var fits func(topology.NodeID) bool
	if !c.roomEverywhere(f.Rate) {
		fits = c.fitsFn(f.ID, f.Rate)
	}
	for _, typ := range types {
		feasible := c.oracle.SwitchesOfType(typ)
		if fits != nil {
			kept := c.feasible[:0]
			for _, w := range feasible {
				if fits(w) {
					kept = append(kept, w)
				}
			}
			c.feasible = kept
			feasible = kept
		}
		if len(feasible) == 0 {
			return nil, errNoFeasibleSwitch(typ, f.ID)
		}
		p.List = append(p.List, feasible[rng.Intn(len(feasible))])
	}
	return p, nil
}

// ShortestPolicy builds the deterministic shortest-path policy between the
// flow's endpoint servers (no load awareness) — the baseline behavior of a
// plain routing fabric.
func (c *Controller) ShortestPolicy(f *flow.Flow, loc flow.Locator) (*flow.Policy, error) {
	src, dst, err := c.endpointServers(f, loc)
	if err != nil {
		return nil, err
	}
	if src == dst {
		return &flow.Policy{Flow: f.ID}, nil
	}
	path := c.oracle.ShortestPath(src, dst)
	if path == nil {
		return nil, fmt.Errorf("controller: %w: no path between servers %d and %d", ErrNoFeasibleRoute, src, dst)
	}
	return flow.PolicyFromPath(c.topo, f.ID, path), nil
}

// SolveInfo describes how an Algorithm-1 solve was satisfied, for callers
// (core's dirty-set loop) that reason about result reusability.
type SolveInfo struct {
	// FullStages reports that every candidate switch of every required
	// type was capacity-feasible, so the solve ran over the unfiltered
	// stage lists. Because segment cost is load-independent (Eq. 2), such
	// a solve's result depends only on the endpoint pair, rate, and unit
	// cost — it stays valid across any load change that keeps the fabric
	// uncongested for that rate (see FitsEverywhere).
	FullStages bool
}

// OptimizePolicy is Algorithm 1 for one flow: construct the layered
// candidate graph (source server → one switch of each required type →
// destination server), keep only capacity-feasible switches, and return the
// minimum-cost choice per stage via dynamic programming. The segment cost is
// the cost model's rate × hop-distance (Eq. 2), so with idle switches the
// result coincides with a shortest path, and under load it routes around
// saturated switches exactly as Figure 2 illustrates. The optimized policy
// is NOT installed; callers install it when adopting the result.
//
// The solve itself is the oracle's netstate.BestRoute, which answers
// full-stage queries on healthy Tree, Fat-Tree and VL2 fabrics in closed
// form and runs the DP otherwise.
func (c *Controller) OptimizePolicy(f *flow.Flow, loc flow.Locator) (*flow.Policy, error) {
	p, _, err := c.OptimizePolicyDetailed(f, loc)
	return p, err
}

// OptimizePolicyDetailed is OptimizePolicy plus solve metadata.
func (c *Controller) OptimizePolicyDetailed(f *flow.Flow, loc flow.Locator) (*flow.Policy, SolveInfo, error) {
	src, dst, err := c.endpointServers(f, loc)
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return c.optimizeBetween(f, src, dst)
}

// OptimizeBetween runs Algorithm 1 for a flow whose endpoint servers are
// already known — the locator-free form the fault reactor uses to re-solve
// a flow recorded in an earlier wave (whose containers have since been
// released) after its installed policy was found to traverse a dead switch.
// The result is NOT installed.
func (c *Controller) OptimizeBetween(f *flow.Flow, src, dst topology.NodeID) (*flow.Policy, error) {
	p, _, err := c.optimizeBetween(f, src, dst)
	return p, err
}

// optimizeBetween is the shared Algorithm-1 body behind
// OptimizePolicyDetailed and OptimizeBetween.
func (c *Controller) optimizeBetween(f *flow.Flow, src, dst topology.NodeID) (*flow.Policy, SolveInfo, error) {
	var info SolveInfo
	if src == topology.None || dst == topology.None || !c.topo.Valid(src) || !c.topo.Valid(dst) {
		return nil, info, fmt.Errorf("controller: flow %d has invalid endpoint servers %d, %d", f.ID, src, dst)
	}
	if src == dst {
		info.FullStages = true
		return &flow.Policy{Flow: f.ID}, info, nil
	}
	types, err := c.oracle.TypeTemplate(src, dst)
	if err != nil {
		return nil, info, fmt.Errorf("controller: %w: no path between servers %d and %d", ErrNoFeasibleRoute, src, dst)
	}
	if len(types) == 0 {
		info.FullStages = true
		return &flow.Policy{Flow: f.ID}, info, nil
	}

	// The load bound, or failing it one feasibility pass over the oracle's
	// cached stage candidates, decides whether the capacity filter bites
	// at all. In the common uncongested case it does not, and the solve
	// runs over the shared unfiltered lists — which the oracle answers in
	// closed form where the fabric allows.
	full := c.oracle.StagesForTemplate(types)
	stages, allFit, err := c.feasibleStages(f, types, full)
	if err != nil {
		return nil, info, err
	}
	info.FullStages = allFit
	list, _, _, ok := c.oracle.BestRoute(src, dst, netstate.RouteQuery{
		Rate:     f.Rate,
		UnitCost: c.cost.UnitCost,
		Stages:   stages,
		Full:     allFit,
	})
	if !ok {
		return nil, info, fmt.Errorf("controller: %w for flow %d", ErrNoFeasibleRoute, f.ID)
	}
	// BestRoute's list is fresh and the caller's, so the policy owns it;
	// Types is the oracle's shared template.
	return &flow.Policy{Flow: f.ID, List: list, Types: types}, info, nil
}

// feasibleStages applies the capacity filter to a template's full stage
// lists: the lists themselves when every switch fits (allFit), a filtered
// copy otherwise, and ErrNoFeasibleSwitch for the first stage left empty.
// When roomEverywhere passes every switch no scan runs, and only a stage
// that is already empty (every switch of its type dead) can fail.
func (c *Controller) feasibleStages(f *flow.Flow, types []string, full [][]topology.NodeID) ([][]topology.NodeID, bool, error) {
	if c.roomEverywhere(f.Rate) {
		for i, typ := range types {
			if len(full[i]) == 0 {
				return nil, false, errNoFeasibleSwitch(typ, f.ID)
			}
		}
		return full, true, nil
	}
	fits := c.fitsFn(f.ID, f.Rate)
	allFit := true
	for i, typ := range types {
		n := 0
		for _, w := range full[i] {
			if fits(w) {
				n++
			}
		}
		if n == 0 {
			return nil, false, errNoFeasibleSwitch(typ, f.ID)
		}
		if n < len(full[i]) {
			allFit = false
		}
	}
	if allFit {
		return full, true, nil
	}
	filtered := make([][]topology.NodeID, len(types))
	for i := range full {
		kept := make([]topology.NodeID, 0, len(full[i]))
		for _, w := range full[i] {
			if fits(w) {
				kept = append(kept, w)
			}
		}
		filtered[i] = kept
	}
	return filtered, false, nil
}

func errNoFeasibleSwitch(typ string, id flow.ID) error {
	return fmt.Errorf("controller: %w of type %q for flow %d", ErrNoFeasibleSwitch, typ, id)
}

// OptimizeInstalledDetailed reruns Algorithm 1 for an installed flow and
// reinstalls the better policy if it strictly reduces the flow's cost. It
// returns the achieved utility (cost reduction, >= 0), the solve's output
// policy (whether or not it was adopted) and its metadata, so incremental
// callers can replay the decision without re-solving.
func (c *Controller) OptimizeInstalledDetailed(f *flow.Flow, loc flow.Locator) (float64, *flow.Policy, SolveInfo, error) {
	old := c.Policy(f.ID)
	if old == nil {
		return 0, nil, SolveInfo{}, fmt.Errorf("controller: flow %d has no installed policy", f.ID)
	}
	oldCost, err := c.cost.FlowCost(f, old, loc)
	if err != nil {
		return 0, nil, SolveInfo{}, err
	}
	opt, info, err := c.OptimizePolicyDetailed(f, loc)
	if err != nil {
		return 0, nil, info, err
	}
	newCost, err := c.cost.FlowCost(f, opt, loc)
	if err != nil {
		return 0, opt, info, err
	}
	if newCost >= oldCost-1e-12 {
		return 0, opt, info, nil
	}
	if err := c.Install(f, opt); err != nil {
		return 0, opt, info, err
	}
	return oldCost - newCost, opt, info, nil
}

// TotalCost evaluates the TAA objective over the installed policies.
func (c *Controller) TotalCost(flows []*flow.Flow, loc flow.Locator) (float64, error) {
	return c.cost.TotalCost(flows, c.Policy, loc)
}

// OverloadedSwitches returns switches whose load exceeds capacity (possible
// only after external capacity changes, e.g. failure injection).
func (c *Controller) OverloadedSwitches() []topology.NodeID {
	var out []topology.NodeID
	for _, w := range c.topo.Switches() {
		cap := c.topo.Node(w).Capacity
		if !math.IsInf(cap, 1) && c.load[w] > cap+1e-9 {
			out = append(out, w)
		}
	}
	return out
}
