// Package packetsim is a packet-level discrete-event network simulator, the
// stand-in for the D-ITG traffic measurements of §7.1: where internal/netsim
// treats transfers as fluid flows, packetsim injects individual packets,
// queues them FIFO at every link, applies per-switch forwarding latency, and
// drops packets when a switch's finite queue overflows — the "packets of
// this shuffle traffic flow being rejected" failure of Figure 2. It measures
// the per-packet end-to-end delays Figure 7(b) reports in microseconds.
//
// Units: bytes are GB, bandwidth is GB per time unit, and per-switch
// forwarding latency is LatencyPerT time units per T (the abstract
// switch-delay unit used across the repository).
package packetsim

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// Config tunes the packet model.
type Config struct {
	// PacketGB is the packet size (default 0.01 GB — coarse packets keep
	// event counts tractable while preserving queueing behavior).
	PacketGB float64
	// LatencyPerT converts the topology's T units into simulation time
	// (default 1.0).
	LatencyPerT float64
	// QueueCap bounds each switch's output queue in packets; arrivals to a
	// full queue are dropped. Zero means unbounded.
	QueueCap int
	// MaxPacketsPerFlow caps packet counts per flow (default 256) so huge
	// transfers sample rather than enumerate; byte totals are preserved by
	// scaling the packet size per flow.
	MaxPacketsPerFlow int
}

func (c Config) withDefaults() Config {
	if c.PacketGB <= 0 {
		c.PacketGB = 0.01
	}
	if c.LatencyPerT <= 0 {
		c.LatencyPerT = 1
	}
	if c.MaxPacketsPerFlow <= 0 {
		c.MaxPacketsPerFlow = 256
	}
	return c
}

// FlowSpec is one packet stream over a fixed route.
type FlowSpec struct {
	ID flow.ID
	// Route is the concrete node walk (expand policy routes with gaps
	// through netsim.Network.ExpandRoute).
	Route []topology.NodeID
	// Bytes to send.
	Bytes float64
	// Start time of the first packet.
	Start float64
	// Interval between packet injections; zero derives it from the first
	// link's bandwidth (back-to-back at line rate).
	Interval float64
}

// FlowResult summarizes one flow's packet telemetry.
type FlowResult struct {
	ID        flow.ID
	Sent      int
	Delivered int
	Dropped   int
	// Delay collects per-packet end-to-end delays of delivered packets.
	Delay metrics.Sample
	// Hops is the route length in links.
	Hops int
}

// LossRate returns dropped/sent (0 when nothing sent).
func (f *FlowResult) LossRate() float64 {
	if f.Sent == 0 {
		return 0
	}
	return float64(f.Dropped) / float64(f.Sent)
}

// Result aggregates a run.
type Result struct {
	Flows map[flow.ID]*FlowResult
	// TotalSent/Delivered/Dropped across flows.
	TotalSent, TotalDelivered, TotalDropped int
}

// AvgDelay returns the mean end-to-end delay over all delivered packets.
func (r *Result) AvgDelay() float64 {
	var sum float64
	n := 0
	for _, f := range r.Flows {
		sum += f.Delay.Sum()
		n += f.Delay.N()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// LossRate returns the global drop fraction.
func (r *Result) LossRate() float64 {
	if r.TotalSent == 0 {
		return 0
	}
	return float64(r.TotalDropped) / float64(r.TotalSent)
}

// event is a packet arriving at route position pos at time t.
type event struct {
	t      float64
	seq    int // FIFO tiebreak
	flow   int // index into specs
	packet int
	pos    int // index into walk: packet has arrived at walk[pos]
	size   float64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t { //taalint:floateq total-order comparator: exact compare required for heap consistency

		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// linkState tracks a directed link's FIFO transmitter.
type linkState struct {
	bandwidth float64
	freeAt    float64
}

// Simulate runs the packet simulation to completion.
func Simulate(topo *topology.Topology, specs []*FlowSpec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Flows: make(map[flow.ID]*FlowResult, len(specs))}

	type flowState struct {
		spec     *FlowSpec
		walk     []topology.NodeID
		packetGB float64
		interval float64
	}
	states := make([]*flowState, 0, len(specs))
	for _, sp := range specs {
		if _, dup := res.Flows[sp.ID]; dup {
			return nil, fmt.Errorf("packetsim: duplicate flow %d", sp.ID)
		}
		if sp.Bytes < 0 || sp.Start < 0 || sp.Interval < 0 {
			return nil, fmt.Errorf("packetsim: flow %d has negative parameters", sp.ID)
		}
		if len(sp.Route) == 0 {
			return nil, fmt.Errorf("packetsim: flow %d has empty route", sp.ID)
		}
		if err := topo.ValidatePath(sp.Route); err != nil {
			return nil, fmt.Errorf("packetsim: flow %d: %w", sp.ID, err)
		}
		fr := &FlowResult{ID: sp.ID, Hops: len(sp.Route) - 1}
		res.Flows[sp.ID] = fr

		pktGB := cfg.PacketGB
		n := 0
		if sp.Bytes > 0 {
			n = int(sp.Bytes/pktGB + 0.999999)
			if n > cfg.MaxPacketsPerFlow {
				n = cfg.MaxPacketsPerFlow
				pktGB = sp.Bytes / float64(n)
			}
		}
		if n == 0 || len(sp.Route) == 1 {
			continue // nothing to transmit (local or empty flow)
		}
		interval := sp.Interval
		if interval <= 0 {
			l, ok := topo.Link(sp.Route[0], sp.Route[1])
			if !ok {
				return nil, fmt.Errorf("packetsim: flow %d missing first link", sp.ID)
			}
			interval = pktGB / l.Bandwidth
		}
		fr.Sent = n
		res.TotalSent += n
		states = append(states, &flowState{spec: sp, walk: sp.Route, packetGB: pktGB, interval: interval})
	}

	links := make(map[[2]topology.NodeID]*linkState)
	getLink := func(a, b topology.NodeID) (*linkState, error) {
		k := [2]topology.NodeID{a, b}
		if ls, ok := links[k]; ok {
			return ls, nil
		}
		l, ok := topo.Link(a, b)
		if !ok {
			return nil, fmt.Errorf("packetsim: missing link %d-%d", a, b)
		}
		ls := &linkState{bandwidth: l.Bandwidth}
		links[k] = ls
		return ls, nil
	}

	h := &eventHeap{}
	seq := 0
	startOf := make(map[[2]int]float64) // (flow, packet) -> injection time
	for fi, st := range states {
		for p := 0; p < res.Flows[st.spec.ID].Sent; p++ {
			t := st.spec.Start + float64(p)*st.interval
			heap.Push(h, event{t: t, seq: seq, flow: fi, packet: p, pos: 0, size: st.packetGB})
			startOf[[2]int{fi, p}] = t
			seq++
		}
	}

	for h.Len() > 0 {
		ev := heap.Pop(h).(event)
		st := states[ev.flow]
		fr := res.Flows[st.spec.ID]
		node := st.walk[ev.pos]

		if ev.pos == len(st.walk)-1 {
			// Delivered.
			fr.Delivered++
			res.TotalDelivered++
			fr.Delay.Add(ev.t - startOf[[2]int{ev.flow, ev.packet}])
			continue
		}
		// Forwarding latency at switches (the per-T delay).
		depart := ev.t
		if topo.Node(node).IsSwitch() {
			depart += cfg.LatencyPerT
		}
		next := st.walk[ev.pos+1]
		ls, err := getLink(node, next)
		if err != nil {
			return nil, err
		}
		// Queue cap applies at switch egress.
		if cfg.QueueCap > 0 && topo.Node(node).IsSwitch() {
			// Packets currently waiting on this link.
			waiting := 0
			if ls.freeAt > depart {
				waiting = int((ls.freeAt - depart) / (ev.size / ls.bandwidth))
			}
			if waiting >= cfg.QueueCap {
				fr.Dropped++
				res.TotalDropped++
				continue
			}
		}
		txStart := depart
		if ls.freeAt > txStart {
			txStart = ls.freeAt
		}
		txDone := txStart + ev.size/ls.bandwidth
		ls.freeAt = txDone
		heap.Push(h, event{t: txDone, seq: seq, flow: ev.flow, packet: ev.packet, pos: ev.pos + 1, size: ev.size})
		seq++
	}
	return res, nil
}

// DelayPercentile pools all delivered packet delays and returns the p-th
// percentile.
func (r *Result) DelayPercentile(p float64) float64 {
	var all metrics.Sample
	for _, f := range r.Flows {
		all.AddAll(f.Delay.Values())
	}
	return all.Percentile(p)
}

// FlowIDs returns the flow IDs ascending (stable iteration helper).
func (r *Result) FlowIDs() []flow.ID {
	out := make([]flow.ID, 0, len(r.Flows))
	for id := range r.Flows {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
