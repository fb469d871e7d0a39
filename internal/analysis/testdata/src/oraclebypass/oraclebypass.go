// Package fixture exercises the oraclebypass check: it plays the role of a
// scheduler-layer consumer (import path "fixture/consumer") reaching for
// the topology's closed forms.
package fixture

import (
	"repro/internal/netstate"
	"repro/internal/topology"
)

// OracleDist routes a distance query through the shared oracle. Not
// flagged.
func OracleDist(o *netstate.Oracle, a, b topology.NodeID) int {
	return o.Dist(a, b)
}

// Structural accessors are O(1) reads, not path computations. Not flagged.
func Structural(t *topology.Topology) int {
	return t.NumServers() + t.NumLinks()
}

// RawStructuralDist calls a coordinate closed form from a consumer: the
// healthy-graph answer with none of netstate's liveness fallback gating.
// Flagged.
func RawStructuralDist(t *topology.Topology, a, b topology.NodeID) int {
	d, _ := t.StructuralDist(a, b)
	return d
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
