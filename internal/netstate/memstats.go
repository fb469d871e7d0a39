// Oracle memory accounting: the O(V²)→O(V) claim of the structural refactor
// is measurable, not asserted. MemoryStats walks every cache the oracle
// owns and reports entry counts plus an approximate resident byte total, so
// benchmarks and cmd/hitprofile can print the footprint next to wall-clock.
package netstate

// MemoryStats is a point-in-time census of the oracle's caches.
type MemoryStats struct {
	// Structural reports whether coordinate closed forms are answering
	// distance queries right now (no BFS rows retained on that path).
	Structural bool
	// DistRows is the number of memoized per-source BFS rows; DistRowBytes
	// their backing storage. Zero in structural mode.
	DistRows     int
	DistRowBytes int64
	// Paths and Templates count (src,dst)-keyed entries.
	Paths, Templates int
	// TypeLists and StageLists count the per-type and per-template caches.
	TypeLists, StageLists int
	// AccessEntries is the size of the access-switch table (0 or NumNodes).
	AccessEntries int
	// SwitchPairEntries is the size of the dense switch-pair distance
	// table (S², capped at maxSwitchPairSlots; 0 when unbuilt or disabled).
	SwitchPairEntries int
	// ApproxBytes estimates the resident heap of everything counted above.
	ApproxBytes int64
}

const (
	sliceHdrSize = 24
	nodeIDSize   = 8 // topology.NodeID is int
)

// MemoryStats reports the oracle's current cache footprint.
func (o *Oracle) MemoryStats() MemoryStats {
	var s MemoryStats
	s.Structural = o.structuralOK()

	for _, row := range o.distRows {
		if row != nil {
			s.DistRows++
			s.DistRowBytes += int64(len(row)) * 4
		}
	}
	// The spine is O(V) once the first BFS fallback has allocated it.
	s.ApproxBytes += int64(len(o.distRows))*sliceHdrSize + s.DistRowBytes

	s.Paths = len(o.paths)
	for _, p := range o.paths {
		s.ApproxBytes += int64(len(p)) * nodeIDSize
	}
	s.Templates = len(o.templates)
	for _, t := range o.templates {
		s.ApproxBytes += int64(len(t)) * 16 // string headers
	}
	s.ApproxBytes += int64(s.Paths+s.Templates) * 32 // map overhead

	s.TypeLists = len(o.byType)
	for _, l := range o.byType {
		s.ApproxBytes += int64(len(l)) * nodeIDSize
	}
	s.StageLists = len(o.stages)

	s.AccessEntries = len(o.access)
	s.ApproxBytes += int64(len(o.access)) * nodeIDSize

	if t := o.swTab; t.enabled() {
		s.SwitchPairEntries = len(t.dist)
		s.ApproxBytes += int64(len(t.dist))*4 + int64(len(t.idx))*4
	}
	return s
}
