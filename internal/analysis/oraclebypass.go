package analysis

import (
	"go/types"
	"strings"
)

// OracleBypass keeps the topology's coordinate closed forms inside
// internal/netstate. StructuralDist, StageTemplate and StageRoute answer
// for the HEALTHY graph only — each refuses (ok=false) while any node is
// down — and internal/netstate is where the refuse-and-fall-back-to-BFS
// gating lives. A consumer calling them directly must reimplement that
// gating, and a missed refusal check silently serves healthy-graph answers
// on a degraded fabric. Every other path answer (distances, paths, access
// switches, switch lists, latencies) exists only on the netstate oracle,
// so the package boundary already routes those through it. Structural
// accessors (Node, Servers, Switches, Links, Neighbors, ...) remain free:
// they are O(1) reads, not path computations.
type OracleBypass struct{}

// structuralOnly are the coordinate closed-form accessors, callable only
// from internal/netstate.
var structuralOnly = map[string]bool{
	"StructuralDist": true,
	"StageTemplate":  true,
	"StageRoute":     true,
}

// Name implements Check.
func (OracleBypass) Name() string { return "oraclebypass" }

// Doc implements Check.
func (OracleBypass) Doc() string {
	return "topology closed forms outside internal/netstate must go through the netstate oracle"
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
		if isTopologyType(selection.Recv()) && structuralOnly[m.Name()] {
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
