package analysis

import (
	"go/types"
	"strings"
)

// OracleBypass enforces the PR 1 invariant behind internal/netstate: all
// path, BFS-distance and switch-inventory queries go through the shared
// epoch-versioned oracle. Calling the raw *topology.Topology query methods
// from a consumer package silently reintroduces the O(containers × servers
// × flows × BFS) behavior the oracle removed, and — because the raw
// methods know nothing about the controller's epoch — can disagree with
// what every other layer sees after a capacity or bandwidth mutation.
//
// Forbidden outside internal/netstate (and internal/topology itself):
// Topology.Dist, ShortestPath, ShortestPathDAG, PathLatency, AccessSwitch
// and SwitchesOfType — each has an oracle equivalent of the same name —
// plus the coordinate closed forms StructuralDist, LowestCommonTier,
// StageTemplate and StageRoute, which answer for the healthy graph only
// and whose refuse-and-fall-back-to-BFS gating is centralized in
// internal/netstate.
// Structural accessors (Node, Servers, Switches, Links, Neighbors, ...)
// remain free: they are O(1) reads, not path computations.
type OracleBypass struct{}

// oracleOnly are the *topology.Topology methods with a mandatory oracle
// equivalent.
var oracleOnly = map[string]bool{
	"Dist":            true,
	"ShortestPath":    true,
	"ShortestPathDAG": true,
	"PathLatency":     true,
	"AccessSwitch":    true,
	"SwitchesOfType":  true,
}

// structuralOnly are the coordinate closed-form accessors, callable only
// from internal/netstate. Unlike the oracleOnly methods these are O(1),
// but they answer for the HEALTHY graph only — each refuses (ok=false)
// while any node is down — and internal/netstate is where the
// fallback-to-BFS gating lives. A consumer calling them directly must
// reimplement that gating, and a missed refusal check silently serves
// healthy-graph distances on a degraded fabric.
var structuralOnly = map[string]bool{
	"StructuralDist":   true,
	"LowestCommonTier": true,
	"StageTemplate":    true,
	"StageRoute":       true,
}

// Name implements Check.
func (OracleBypass) Name() string { return "oraclebypass" }

// Doc implements Check.
func (OracleBypass) Doc() string {
	return "topology path/distance queries outside internal/netstate must go through the netstate oracle"
}

// Run implements Check.
func (OracleBypass) Run(p *Pass) {
	base := p.Pkg.Base()
	if base == "netstate" || base == "topology" {
		return
	}
	for sel, selection := range p.Pkg.Info.Selections {
		if selection.Kind() != types.MethodVal && selection.Kind() != types.MethodExpr {
			continue
		}
		m := selection.Obj()
		if !isTopologyType(selection.Recv()) {
			continue
		}
		switch {
		case oracleOnly[m.Name()]:
			p.Reportf(sel.Sel.Pos(),
				"direct topology.%s bypasses the netstate oracle (uncached BFS, epoch-blind); use (*netstate.Oracle).%s",
				m.Name(), m.Name())
		case structuralOnly[m.Name()]:
			p.Reportf(sel.Sel.Pos(),
				"topology.%s is a structural closed form reserved for internal/netstate (liveness fallback gating lives there); query the oracle instead",
				m.Name())
		}
	}
}

// isTopologyType matches topology.Topology or *topology.Topology from the
// module's internal/topology package.
func isTopologyType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Topology" || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), "internal/topology")
}
