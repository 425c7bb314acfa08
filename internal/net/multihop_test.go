package net

import (
	"slices"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// chain builds h0 - sw0 - sw1 - ... - sw(n-1) - h1 with the given
// per-link bandwidths (len n+1: host uplink, inter-switch links, host
// downlink).
func chain(t *testing.T, bws []float64) (*sim.Engine, *Network, []*Switch) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng, 1)
	h0, h1 := nw.AddHost(), nw.AddHost()
	n := len(bws) - 1
	sws := make([]*Switch, n)
	for i := range sws {
		sws[i] = nw.AddSwitch()
	}
	first, _ := nw.Connect(sws[0], h0, bws[0], usec)
	sws[0].AddRoute(h0.NodeID(), first)
	for i := 0; i < n-1; i++ {
		up, down := nw.Connect(sws[i], sws[i+1], bws[i+1], usec)
		sws[i].AddRoute(h1.NodeID(), up)
		sws[i+1].AddRoute(h0.NodeID(), down)
	}
	last, _ := nw.Connect(sws[n-1], h1, bws[n], usec)
	sws[n-1].AddRoute(h1.NodeID(), last)
	if n == 1 {
		// Single switch: routes to both hosts already set above.
		_ = first
	}
	return eng, nw, sws
}

func TestMultiHopINTStack(t *testing.T) {
	eng, nw, _ := chain(t, []float64{gbps100, 400e9, 400e9, gbps100})
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 50_000}, algo)
	eng.Run()
	hops := algo.last.Hops
	if len(hops) != 3 {
		t.Fatalf("INT stack depth = %d, want 3 switches", len(hops))
	}
	// Hop order must be path order: first hop is the 100G... the first
	// switch egress toward the next is 400G, then 400G, then the last
	// switch egress toward the host at 100G.
	wantRates := []float64{400e9, 400e9, gbps100}
	if !slices.Equal(algo.hopBps, wantRates) {
		t.Fatalf("hop rates = %v, want %v", algo.hopBps, wantRates)
	}
	for i, h := range hops {
		if h.TxBytes == 0 {
			t.Fatalf("hop %d txBytes not stamped", i)
		}
	}
}

func TestBottleneckMidPath(t *testing.T) {
	// 100G hosts, 10G middle link: the queue must form at the switch
	// whose egress is the 10G link, and the flow's ideal FCT must use
	// the 10G bottleneck.
	eng, nw, sws := chain(t, []float64{gbps100, 10e9, gbps100})
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1_000_000}, algo)

	var bottleneck *Port
	for _, p := range sws[0].Ports() {
		if p.Bandwidth() == 10e9 {
			bottleneck = p
		}
	}
	peak := int64(0)
	var watch func()
	watch = func() {
		if q := bottleneck.QueueBytes(); q > peak {
			peak = q
		}
		if !nw.AllFinished() {
			eng.After(usec, watch)
		}
	}
	eng.At(0, watch)
	eng.Run()
	if peak < 500_000 {
		t.Fatalf("bottleneck queue peaked at %d, want most of the 1MB flow", peak)
	}
	ideal := f.IdealFCT().Seconds()
	atTenG := float64(1_000_000+48*1000) * 8 / 10e9
	if ideal < atTenG {
		t.Fatalf("ideal FCT %v below the 10G serialization bound %v", ideal, atTenG)
	}
	// Achieved ~ ideal because nothing else competes.
	if f.Slowdown() > 1.05 {
		t.Fatalf("uncontended slowdown through bottleneck = %v", f.Slowdown())
	}
}

func TestBidirectionalFlows(t *testing.T) {
	// Flows in both directions between the same pair share links with
	// their reverse-path ACK traffic; both must finish and conserve.
	eng, nw, _ := star(t, 2, 3)
	a1 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	a2 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f1 := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1_000_000}, a1)
	f2 := nw.AddFlow(FlowSpec{ID: 2, Src: 1, Dst: 0, Size: 1_000_000}, a2)
	eng.Run()
	if !f1.Finished() || !f2.Finished() {
		t.Fatal("bidirectional flows did not finish")
	}
	// ACK overhead steals a little bandwidth, but each direction is
	// otherwise uncontended: slowdowns near 1.
	if f1.Slowdown() > 1.1 || f2.Slowdown() > 1.1 {
		t.Fatalf("bidirectional slowdowns %v / %v, want ~1", f1.Slowdown(), f2.Slowdown())
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestManyFlowsSameSourceSharePacing(t *testing.T) {
	// Four flows from one host to four receivers each pace at line rate;
	// the shared NIC serializes them so each gets ~1/4 goodput.
	eng, nw, _ := star(t, 5, 1)
	var flows []*Flow
	for i := 1; i <= 4; i++ {
		algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
		flows = append(flows, nw.AddFlow(FlowSpec{ID: i, Src: 0, Dst: i, Size: 500_000}, algo))
	}
	eng.Run()
	for _, f := range flows {
		if !f.Finished() {
			t.Fatal("flow did not finish")
		}
		if f.Slowdown() < 3 || f.Slowdown() > 5 {
			t.Fatalf("flow %d slowdown = %v, want ~4 (quarter of the NIC)",
				f.Spec.ID, f.Slowdown())
		}
	}
}

func TestWindowShrinkMidFlight(t *testing.T) {
	// An algorithm that collapses its window after 50 ACKs: the sender
	// must stop releasing packets until inflight drains below the new
	// window, and still finish.
	eng, nw, _ := star(t, 2, 1)
	algo := &shrinkAlgo{}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 500_000}, algo)
	eng.Run()
	if !f.Finished() {
		t.Fatal("flow did not finish after window shrink")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

type shrinkAlgo struct{ acks int }

func (a *shrinkAlgo) Init(*cc.Env) cc.Control {
	return cc.Control{WindowBytes: 100_000, RateBps: gbps100}
}
func (a *shrinkAlgo) OnAck(cc.Feedback) cc.Control {
	a.acks++
	if a.acks > 50 {
		return cc.Control{WindowBytes: 2_000, RateBps: gbps100}
	}
	return cc.Control{WindowBytes: 100_000, RateBps: gbps100}
}
