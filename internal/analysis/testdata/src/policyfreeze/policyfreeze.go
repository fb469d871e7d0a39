// Package controller is the policyfreeze golden fixture: outside package
// flow, a flow.Policy's List and Types are written only through a local
// holding a &flow.Policy{…} built in the same function, and only into
// memory that function gave the field.
package controller

import (
	"slices"
	"sort"

	"repro/internal/flow"
	"repro/internal/topology"
)

// Reroute writes an element of a policy it was handed. Flagged.
func Reroute(p *flow.Policy, w topology.NodeID) {
	p.List[0] = w
}

// Retag assigns the field of a policy it was handed. Flagged.
func Retag(p *flow.Policy, types []string) {
	p.Types = types
}

// Extend appends into a handed policy's list: the field assignment and
// the append are flagged.
func Extend(p *flow.Policy, w topology.NodeID) {
	p.List = append(p.List, w)
}

// Overwrite copies into a handed policy's list. Flagged.
func Overwrite(p *flow.Policy, src []topology.NodeID) {
	copy(p.List, src)
}

// Canonicalize sorts a handed policy's fields in place. Both flagged.
func Canonicalize(p *flow.Policy) {
	sort.Strings(p.Types)
	slices.Reverse(p.List)
}

// Bump writes through a local aliasing a handed policy's list. Flagged.
func Bump(p *flow.Policy, w topology.NodeID) {
	tail := p.List[1:]
	tail[0] = w
	tail[1]++
}

// Relabel builds a policy around a shared template and then writes into
// it: the template is not the function's own memory. Flagged.
func Relabel(f flow.ID, types []string) *flow.Policy {
	q := &flow.Policy{Flow: f, Types: types}
	q.Types[0] = "access"
	return q
}

// Grow appends into a shared template through a fresh policy. Flagged.
func Grow(f flow.ID, types []string) *flow.Policy {
	q := &flow.Policy{Flow: f, Types: types}
	q.Types = append(q.Types, "core")
	return q
}

// Rebound writes through a local that stops holding its literal. Flagged.
func Rebound(p *flow.Policy, w topology.NodeID) {
	q := &flow.Policy{Flow: p.Flow}
	q = p
	q.List[0] = w
}

// Suppressed shows the escape hatch: exactly one suppressed finding.
func Suppressed(p *flow.Policy, w topology.NodeID) {
	p.List[0] = w //taalint:policyfreeze fixture: the one suppressed violation
}

// Random builds its own policy, as controller.RandomPolicy does: a list
// it made, appended to through the fresh local, and the shared template
// assigned but never written. Not flagged (near miss).
func Random(f flow.ID, types []string, pick func(string) topology.NodeID) *flow.Policy {
	p := &flow.Policy{Flow: f, List: make([]topology.NodeID, 0, len(types)), Types: types}
	for _, typ := range types {
		p.List = append(p.List, pick(typ))
	}
	return p
}

// Swap returns a new policy with one position changed, copying the list
// into memory it made, as reference.ApplySwap does. Not flagged.
func Swap(p *flow.Policy, i int, w topology.NodeID) *flow.Policy {
	q := &flow.Policy{Flow: p.Flow, List: make([]topology.NodeID, len(p.List)), Types: p.Types}
	copy(q.List, p.List)
	q.List[i] = w
	return q
}

// Read only reads a handed policy, aliasing its list and appending from
// it. Not flagged.
func Read(p *flow.Policy, src, dst topology.NodeID) ([]topology.NodeID, int) {
	self := p.List
	n := 0
	for _, w := range self {
		if w == src {
			n++
		}
	}
	route := append([]topology.NodeID{src}, p.List...)
	return append(route, dst), n + len(p.Types)
}

// Table replaces a slot of a policy table, as the controller's Install
// does: the policy itself is untouched. Not flagged.
func Table(pols []*flow.Policy, p *flow.Policy) {
	pols[p.Flow] = p
}

// Assemble assigns fields of a policy it built. Not flagged.
func Assemble(f flow.ID, list []topology.NodeID, types []string) *flow.Policy {
	q := &flow.Policy{Flow: f}
	q.List = list
	q.Types = types
	return q
}
