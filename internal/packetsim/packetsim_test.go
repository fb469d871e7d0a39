package packetsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/reference"
	"repro/internal/topology"
)

// lineTopo builds s0 - w0 - w1 - s1 with the given bandwidth.
func lineTopo(t *testing.T, bw float64) (*topology.Topology, []topology.NodeID) {
	t.Helper()
	b := topology.NewBuilder("line")
	w0 := b.AddSwitch("w0", topology.TypeAccess, 0, topology.InfiniteCapacity)
	w1 := b.AddSwitch("w1", topology.TypeAccess, 0, topology.InfiniteCapacity)
	s0 := b.AddServer("s0")
	s1 := b.AddServer("s1")
	b.Connect(s0, w0, bw, 0)
	b.Connect(w0, w1, bw, 0)
	b.Connect(w1, s1, bw, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, []topology.NodeID{s0, w0, w1, s1}
}

func TestSinglePacketDelay(t *testing.T) {
	topo, n := lineTopo(t, 1)
	spec := &FlowSpec{ID: 0, Route: []topology.NodeID{n[0], n[1], n[2], n[3]}, Bytes: 0.01}
	res, err := Simulate(topo, []*FlowSpec{spec}, Config{PacketGB: 0.01, LatencyPerT: 1})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Flows[0]
	if fr.Sent != 1 || fr.Delivered != 1 || fr.Dropped != 0 {
		t.Fatalf("sent/delivered/dropped = %d/%d/%d", fr.Sent, fr.Delivered, fr.Dropped)
	}
	// Delay = 3 transmissions x 0.01 + 2 switch latencies x 1 = 2.03.
	if got := fr.Delay.Mean(); math.Abs(got-2.03) > 1e-9 {
		t.Errorf("delay = %v, want 2.03", got)
	}
	if fr.Hops != 3 {
		t.Errorf("hops = %d", fr.Hops)
	}
	if res.LossRate() != 0 {
		t.Errorf("loss = %v", res.LossRate())
	}
}

func TestPipelinedPacketsQueueAtBottleneck(t *testing.T) {
	topo, n := lineTopo(t, 1)
	// 5 packets injected back-to-back: the middle link serializes them; the
	// last packet's delay exceeds the first's.
	spec := &FlowSpec{ID: 0, Route: []topology.NodeID{n[0], n[1], n[2], n[3]}, Bytes: 0.05}
	res, err := Simulate(topo, []*FlowSpec{spec}, Config{PacketGB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Flows[0]
	if fr.Delivered != 5 {
		t.Fatalf("delivered = %d, want 5", fr.Delivered)
	}
	if fr.Delay.Max() <= fr.Delay.Min() {
		t.Errorf("no queueing spread: min %v max %v", fr.Delay.Min(), fr.Delay.Max())
	}
}

func TestCrossTrafficIncreasesDelay(t *testing.T) {
	topo, n := lineTopo(t, 1)
	route := []topology.NodeID{n[0], n[1], n[2], n[3]}
	solo, err := Simulate(topo, []*FlowSpec{{ID: 0, Route: route, Bytes: 0.05}}, Config{PacketGB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Simulate(topo, []*FlowSpec{
		{ID: 0, Route: route, Bytes: 0.05},
		{ID: 1, Route: route, Bytes: 0.05},
	}, Config{PacketGB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if both.Flows[0].Delay.Mean() <= solo.Flows[0].Delay.Mean() {
		t.Errorf("cross traffic did not raise delay: %v vs %v",
			both.Flows[0].Delay.Mean(), solo.Flows[0].Delay.Mean())
	}
}

func TestQueueCapDropsPackets(t *testing.T) {
	// Four sources converge on one egress link: queueing builds at the
	// shared switch, and with a tiny queue cap packets must drop.
	b := topology.NewBuilder("star")
	w0 := b.AddSwitch("w0", topology.TypeAccess, 0, topology.InfiniteCapacity)
	w1 := b.AddSwitch("w1", topology.TypeAccess, 0, topology.InfiniteCapacity)
	sink := b.AddServer("sink")
	b.Connect(w0, w1, 1, 0)
	b.Connect(w1, sink, 4, 0)
	var sources []topology.NodeID
	for i := 0; i < 4; i++ {
		src := b.AddServer("s")
		b.Connect(src, w0, 1, 0)
		sources = append(sources, src)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var specs []*FlowSpec
	for i, src := range sources {
		specs = append(specs, &FlowSpec{
			ID:    flow.ID(i),
			Route: []topology.NodeID{src, w0, w1, sink},
			Bytes: 0.2,
		})
	}
	res, err := Simulate(topo, specs, Config{PacketGB: 0.01, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDropped == 0 {
		t.Error("no drops despite tiny queues and heavy load")
	}
	if res.LossRate() <= 0 || res.LossRate() >= 1 {
		t.Errorf("loss rate = %v", res.LossRate())
	}
	// Conservation: sent = delivered + dropped.
	if res.TotalSent != res.TotalDelivered+res.TotalDropped {
		t.Errorf("conservation violated: %d != %d + %d", res.TotalSent, res.TotalDelivered, res.TotalDropped)
	}
}

func TestLocalFlowNoPackets(t *testing.T) {
	topo, n := lineTopo(t, 1)
	res, err := Simulate(topo, []*FlowSpec{{ID: 0, Route: []topology.NodeID{n[0]}, Bytes: 1}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].Sent != 0 {
		t.Errorf("local flow sent %d packets", res.Flows[0].Sent)
	}
	if res.AvgDelay() != 0 {
		t.Errorf("avg delay = %v", res.AvgDelay())
	}
}

func TestMaxPacketsPerFlowScalesSize(t *testing.T) {
	topo, n := lineTopo(t, 10)
	spec := &FlowSpec{ID: 0, Route: []topology.NodeID{n[0], n[1], n[2], n[3]}, Bytes: 100}
	res, err := Simulate(topo, []*FlowSpec{spec}, Config{PacketGB: 0.01, MaxPacketsPerFlow: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].Sent != 16 {
		t.Errorf("sent = %d, want capped 16", res.Flows[0].Sent)
	}
}

func TestSimulateErrors(t *testing.T) {
	topo, n := lineTopo(t, 1)
	route := []topology.NodeID{n[0], n[1], n[2], n[3]}
	if _, err := Simulate(topo, []*FlowSpec{{ID: 0, Route: route, Bytes: 1}, {ID: 0, Route: route, Bytes: 1}}, Config{}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := Simulate(topo, []*FlowSpec{{ID: 0, Route: nil, Bytes: 1}}, Config{}); err == nil {
		t.Error("empty route accepted")
	}
	if _, err := Simulate(topo, []*FlowSpec{{ID: 0, Route: route, Bytes: -1}}, Config{}); err == nil {
		t.Error("negative bytes accepted")
	}
	if _, err := Simulate(topo, []*FlowSpec{{ID: 0, Route: []topology.NodeID{n[0], n[3]}, Bytes: 1}}, Config{}); err == nil {
		t.Error("non-adjacent route accepted")
	}
}

func TestDelayPercentileAndFlowIDs(t *testing.T) {
	topo, n := lineTopo(t, 1)
	route := []topology.NodeID{n[0], n[1], n[2], n[3]}
	res, err := Simulate(topo, []*FlowSpec{
		{ID: 3, Route: route, Bytes: 0.05},
		{ID: 1, Route: route, Bytes: 0.05},
	}, Config{PacketGB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FlowIDs(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("FlowIDs = %v", got)
	}
	p50 := res.DelayPercentile(50)
	p99 := res.DelayPercentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("percentiles wrong: p50=%v p99=%v", p50, p99)
	}
}

// TestQuickConservationAndMonotoneDelay: across random topologies and flow
// sets, sent = delivered + dropped and every delivered delay >= the
// zero-load lower bound (transmissions + switch latencies).
func TestQuickConservationAndMonotoneDelay(t *testing.T) {
	topo, err := topology.NewTree(2, 3, topology.LinkParams{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := topo.Servers()
	f := func(seed int64, nFlows uint8) bool {
		count := int(nFlows%4) + 1
		base := int(uint64(seed) % 1000)
		var specs []*FlowSpec
		for i := 0; i < count; i++ {
			a := srv[(base+i*3)%len(srv)]
			b := srv[(base+i*5+1)%len(srv)]
			if a == b {
				continue
			}
			specs = append(specs, &FlowSpec{
				ID:    flow.ID(i),
				Route: reference.ShortestPath(topo, a, b),
				Bytes: 0.02 + float64(i)*0.01,
			})
		}
		if len(specs) == 0 {
			return true
		}
		res, err := Simulate(topo, specs, Config{PacketGB: 0.01})
		if err != nil {
			return false
		}
		if res.TotalSent != res.TotalDelivered+res.TotalDropped {
			return false
		}
		for _, sp := range specs {
			fr := res.Flows[sp.ID]
			if fr.Delivered == 0 {
				continue
			}
			// Zero-load bound: hops transmissions + switches' latency.
			switches := 0
			for _, nd := range sp.Route {
				if topo.Node(nd).IsSwitch() {
					switches++
				}
			}
			bound := float64(fr.Hops)*0.01/1.0 + float64(switches)*1.0
			if fr.Delay.Min() < bound-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
