package analysis

import (
	"strings"
)

// purity: every function reachable from the netstate oracle's read API
// must be write-free on monitored shared state, except the blessed
// memo-install sites.
//
// The netstate oracle's read API is advertised as safe for concurrent use
// precisely because reads either hit immutable published tables or install
// memo entries through atomic publishes and lock-guarded shard fills. Any
// OTHER write reachable from a read — a stray counter, a "quick fix" cache
// poke, a liveness flip — is a data race the type system cannot see and
// the race detector only catches if a test happens to interleave it.
//
// The check floods the static call graph from the read-API roots
// (puRoots), then inspects every reached function's direct write effects
// (effects.go). A write to a field of a monitored owner (puMonitored) is
// a finding unless the (function, field) pair appears in puBlessed — the
// single source-of-truth table of memo-install sites, the v3 analogue of
// epochbump's ebBlessed — or the field is a registered observability
// counter (puCounters).
//
// Like all index-based checks this is keyed on package-base short keys so
// the golden fixtures (fixture/netstate) exercise the same tables as the
// real module.

// puRoots is the oracle read API: the entry points scheduler goroutines
// may call concurrently.
var puRoots = map[string]bool{
	"netstate.(Oracle).Dist":          true,
	"netstate.(Oracle).DistRow":       true,
	"netstate.(Oracle).ShortestPath":  true,
	"netstate.(Oracle).NearestByDist": true,
	"netstate.(Oracle).TypeTemplate":  true,
	"netstate.(Oracle).BestRoute":     true,
	"netstate.(Oracle).Headroom":      true,
}

// puMonitored is the set of struct owners whose fields constitute shared
// scheduler state. Cluster and Controller state is included even though
// no read path touches it today: a future read path that does is exactly
// the bug this check exists to catch.
var puMonitored = map[string]bool{
	"netstate.Oracle":       true,
	"netstate.routeShard":   true,
	"topology.Topology":     true,
	"cluster.Cluster":       true,
	"cluster.serverState":   true,
	"controller.Controller": true,
}

// puCounters are monotonic observability counters (atomic, never read
// back on a decision path) that reads may bump freely.
var puCounters = map[string]bool{
	// The live module stripes the pair-route counters (routeStats); the
	// scalar routeHits/routeMisses keys remain for the golden fixture,
	// which models the plain-counter idiom.
	"netstate.Oracle.routeStats":      true,
	"netstate.routeStatStripe.hits":   true,
	"netstate.routeStatStripe.misses": true,
	"netstate.Oracle.routeHits":       true,
	"netstate.Oracle.routeMisses":     true,
}

// puBlessed maps a function short key to the set of monitored field short
// keys it is allowed to install. This is the complete memo-install
// inventory of the oracle: atomic publishes, lock-guarded map/shard
// fills, and the headroom refresh that runs under headMu. Adding an entry
// requires demonstrating the install is atomic or lock-guarded AND that
// the installed value is immutable afterwards (publishfreeze enforces the
// latter for atomic pointers).
var puBlessed = map[string]map[string]bool{
	// ensureLive tears down parameter-derived caches after a liveness
	// change, under the revive mutex (double-checked by callers).
	"netstate.(Oracle).ensureLive": {
		"netstate.Oracle.distRows":  true,
		"netstate.Oracle.paths":     true,
		"netstate.Oracle.templates": true,
		"netstate.Oracle.bands":     true,
		"netstate.Oracle.byType":    true,
		"netstate.Oracle.stages":    true,
		"netstate.Oracle.access":    true,
		"netstate.Oracle.liveSeen":  true,
	},
	// Per-source distance rows: atomic-pointer publish of a fresh row.
	"netstate.(Oracle).DistRow": {"netstate.Oracle.distRows": true},
	// Pair-keyed memo maps, filled under pairMu.
	"netstate.(Oracle).ShortestPath":  {"netstate.Oracle.paths": true},
	"netstate.(Oracle).TypeTemplate":  {"netstate.Oracle.templates": true},
	"netstate.(Oracle).PathBandwidth": {"netstate.Oracle.bands": true},
	// Type-keyed memo maps, filled under typeMu.
	"netstate.(Oracle).SwitchesOfType":    {"netstate.Oracle.byType": true},
	"netstate.(Oracle).StagesForTemplate": {"netstate.Oracle.stages": true},
	// Access-switch table: atomic-pointer publish.
	"netstate.(Oracle).AccessSwitch": {"netstate.Oracle.access": true},
	// Switch-distance table: atomic publish double-checked under swMu.
	"netstate.(Oracle).switchTable": {"netstate.Oracle.swTab": true},
	// Rack table: atomic compare-and-swap publish of an immutable table.
	"netstate.(Oracle).Racks": {"netstate.Oracle.racks": true},
	// Pair-route cache: dense atomic slots plus lock-striped shards.
	"netstate.(Oracle).routeInit": {
		"netstate.Oracle.routeServerIdx":  true,
		"netstate.Oracle.routeNumServers": true,
		"netstate.Oracle.routeDense":      true,
		"netstate.Oracle.routeShards":     true,
		"netstate.routeShard.m":           true,
	},
	"netstate.(Oracle).routeStore":      {"netstate.Oracle.routeDense": true},
	"netstate.(Oracle).clearPairRoutes": {"netstate.Oracle.routeDense": true},
	// Shard fills and resets, each under the stripe's own write lock.
	"netstate.(routeShard).store": {"netstate.routeShard.m": true},
	"netstate.(routeShard).reset": {"netstate.routeShard.m": true},
	// Headroom snapshot refresh, under headMu.
	"netstate.(Oracle).refreshHeadroomLocked": {
		"netstate.Oracle.headroom":     true,
		"netstate.Oracle.loadSnapshot": true,
		"netstate.Oracle.headEpoch":    true,
		"netstate.Oracle.headValid":    true,
	},
	// Topology BFS memo: single-writer by contract, cleared on liveness
	// flips; reads of a shared Topology behind the oracle are serialized
	// by the oracle's own install locks.
	"topology.(Topology).bfs": {"topology.Topology.dist": true},
}

// Purity is the v3 read-path purity check.
type Purity struct{}

// Name implements Check.
func (Purity) Name() string { return "purity" }

// Doc implements Check.
func (Purity) Doc() string {
	return "oracle read paths must not write monitored shared state outside blessed memo-install sites"
}

// RunModule implements ModuleCheck.
func (Purity) RunModule(mp *ModulePass) {
	eff := mp.Index.Effects()

	// Flood from the read-API roots, remembering one representative root
	// per reached function for the diagnostic.
	var seeds []floodSeed
	for _, k := range sortedKeys(mp.Index.Funcs) {
		if puRoots[shortKey(k)] {
			seeds = append(seeds, floodSeed{k, shortKey(k)})
		}
	}
	_, via := mp.Index.flood(seeds)

	for _, k := range sortedKeys(via) {
		fe := eff.Of(k)
		info := mp.Index.Funcs[k]
		if fe == nil || info == nil {
			continue
		}
		blessed := puBlessed[shortKey(k)]
		for _, w := range fe.Writes {
			fld := shortKey(w.Field)
			dot := strings.LastIndexByte(fld, '.')
			if dot < 0 {
				continue
			}
			owner := fld[:dot]
			if !puMonitored[owner] || puCounters[fld] {
				continue
			}
			if blessed[fld] {
				continue
			}
			mp.Reportf(info.Pkg, w.Pos,
				"%s writes %s on the oracle read path (reachable from %s); read paths must be pure — install caches only through a site blessed in puBlessed (purity.go)",
				shortKey(k), fld, via[k])
		}
	}
}
