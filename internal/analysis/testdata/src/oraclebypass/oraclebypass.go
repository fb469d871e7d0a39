// Package fixture exercises the oraclebypass check: it plays the role of a
// scheduler-layer consumer (import path "fixture/consumer") issuing
// path/distance queries.
package fixture

import (
	"repro/internal/netstate"
	"repro/internal/topology"
)

// RawDist runs an uncached, epoch-blind BFS on the raw topology. Flagged.
func RawDist(t *topology.Topology, a, b topology.NodeID) int {
	return t.Dist(a, b)
}

// RawPath bypasses the shared path cache. Flagged.
func RawPath(t *topology.Topology, a, b topology.NodeID) []topology.NodeID {
	return t.ShortestPath(a, b)
}

// OracleDist routes the same query through the shared oracle. Not flagged.
func OracleDist(o *netstate.Oracle, a, b topology.NodeID) int {
	return o.Dist(a, b)
}

// Structural accessors are O(1) reads, not path computations. Not flagged.
func Structural(t *topology.Topology) int {
	return t.NumServers() + t.NumLinks()
}

// Probe queries the access switch on the raw topology. Flagged.
func Probe(t *topology.Topology, s topology.NodeID) topology.NodeID {
	return t.AccessSwitch(s)
}

// RawStructuralDist calls a coordinate closed form from a consumer: the
// healthy-graph answer with none of netstate's liveness fallback gating.
// Flagged (the structural-accessor arm of the check).
func RawStructuralDist(t *topology.Topology, a, b topology.NodeID) int {
	d, _ := t.StructuralDist(a, b)
	return d
}

// RawCommonTier climbs the hierarchy without the oracle. Flagged.
func RawCommonTier(t *topology.Topology, a, b topology.NodeID) int {
	tier, _ := t.LowestCommonTier(a, b)
	return tier
}

// RawStageRoute picks a flow's switches without the oracle. Flagged.
func RawStageRoute(t *topology.Topology, a, b topology.NodeID) []topology.NodeID {
	route, _ := t.StageRoute(a, b)
	return route
}

// planner is a near miss: same method names, not a topology.Topology
// receiver. Not flagged.
type planner struct{}

func (planner) StructuralDist(a, b topology.NodeID) (int, bool) { return 0, false }
func (planner) StageTemplate(a, b topology.NodeID) ([]string, bool) {
	return nil, false
}

// NearMiss exercises the lookalike methods. Not flagged.
func NearMiss(a, b topology.NodeID) int {
	var pl planner
	d, _ := pl.StructuralDist(a, b)
	tmpl, _ := pl.StageTemplate(a, b)
	return d + len(tmpl)
}

// TemplateProbe is a deliberate one-shot diagnostic; suppressed.
func TemplateProbe(t *topology.Topology, a, b topology.NodeID) []string {
	tmpl, _ := t.StageTemplate(a, b) //taalint:oraclebypass one-shot diagnostic probe, not on a decision path
	return tmpl
}
