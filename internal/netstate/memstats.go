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
	// Paths/Templates/Bands count (src,dst)-keyed entries.
	Paths, Templates, Bands int
	// TypeLists and StageLists count the per-type and per-template caches.
	TypeLists, StageLists int
	// AccessEntries is the size of the access-switch table (0 or NumNodes).
	AccessEntries int
	// SwitchPairEntries is the size of the dense switch-pair distance
	// table (S², capped at maxSwitchPairSlots; 0 when unbuilt or disabled).
	SwitchPairEntries int
	// RoutesDense/RoutesSharded count pair-route cache entries by storage.
	RoutesDense, RoutesSharded int
	// ApproxBytes estimates the resident heap of everything counted above.
	ApproxBytes int64
}

const (
	ptrSize    = 8
	nodeIDSize = 8 // topology.NodeID is int
)

// MemoryStats reports the oracle's current cache footprint. It takes the
// same locks the caches use, so it is safe alongside concurrent readers;
// call it between scheduling waves, not inside one, to avoid skew.
func (o *Oracle) MemoryStats() MemoryStats {
	var s MemoryStats
	s.Structural = o.structuralOK()

	for i := range o.distRows {
		if row := o.distRows[i].Load(); row != nil {
			s.DistRows++
			s.DistRowBytes += int64(len(*row)) * 4
		}
	}
	// The atomic-pointer spine itself is O(V) and permanent.
	s.ApproxBytes += int64(len(o.distRows))*ptrSize + s.DistRowBytes

	o.pairMu.RLock()
	s.Paths = len(o.paths)
	for _, p := range o.paths {
		s.ApproxBytes += int64(len(p)) * nodeIDSize
	}
	s.Templates = len(o.templates)
	for _, t := range o.templates {
		s.ApproxBytes += int64(len(t)) * 16 // string headers
	}
	s.Bands = len(o.bands)
	s.ApproxBytes += int64(s.Paths+s.Templates+s.Bands) * 32 // map overhead
	o.pairMu.RUnlock()

	o.typeMu.RLock()
	s.TypeLists = len(o.byType)
	for _, l := range o.byType {
		s.ApproxBytes += int64(len(l)) * nodeIDSize
	}
	s.StageLists = len(o.stages)
	o.typeMu.RUnlock()

	if acc := o.access.Load(); acc != nil {
		s.AccessEntries = len(*acc)
		s.ApproxBytes += int64(len(*acc)) * nodeIDSize
	}

	if t := o.swTab.Load(); t.enabled() {
		s.SwitchPairEntries = len(t.dist)
		s.ApproxBytes += int64(len(t.dist))*4 + int64(len(t.idx))*4
	}

	s.RoutesDense, s.RoutesSharded = o.routeCensus()
	s.ApproxBytes += int64(len(o.routeDense)) * ptrSize
	s.ApproxBytes += int64(s.RoutesDense+s.RoutesSharded) * routeEntryBytes
	return s
}

// routeEntryBytes approximates one PairRoute entry plus its List slice.
const routeEntryBytes = 96

// routeCensus counts pair-route entries in both storages.
func (o *Oracle) routeCensus() (dense, sharded int) {
	for i := range o.routeDense {
		if o.routeDense[i].Load() != nil {
			dense++
		}
	}
	for i := range o.routeShards {
		sh := &o.routeShards[i]
		sh.mu.RLock()
		sharded += len(sh.m)
		sh.mu.RUnlock()
	}
	return dense, sharded
}
