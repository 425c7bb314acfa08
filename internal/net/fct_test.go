package net

import (
	"math"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

func TestIdealFCTSinglePacket(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1000},
		&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
	eng.Step() // the start, which derives the path constants
	// One packet: ideal = pipeline fill only = 2 links of (prop + ser).
	want := 2 * (usec + sim.TransmitTime(1048, gbps100))
	if got := f.IdealFCT(); got != want {
		t.Fatalf("IdealFCT = %v, want %v", got, want)
	}
}

func TestIdealFCTLargeFlow(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	const size = 1_000_000
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: size},
		&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
	eng.Step() // the start
	// 1000 packets: fill + 999 packets' wire bytes at the bottleneck.
	fill := 2 * (usec + sim.TransmitTime(1048, gbps100))
	rest := sim.Time(float64(999*1048) * 8 * 1e12 / gbps100)
	want := fill + rest
	if got := f.IdealFCT(); got != want {
		t.Fatalf("IdealFCT = %v, want %v", got, want)
	}
}

func TestSlowdownUncontendedNearOne(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 2_000_000},
		&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
	eng.Run()
	if s := f.Slowdown(); s < 1 || s > 1.01 {
		t.Fatalf("uncontended slowdown = %v, want within 1%% of ideal", s)
	}
}

func TestSlowdownReflectsContention(t *testing.T) {
	eng, nw, _ := star(t, 3, 1)
	a := nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 1_000_000},
		&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
	b := nw.AddFlow(FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 1_000_000},
		&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
	eng.Run()
	// Two line-rate flows share one link: each gets ~half, so slowdowns
	// land near 2 (the later-arriving bytes of one flow drain after the
	// other finishes, so 1.5-2x covers both).
	for _, f := range []*Flow{a, b} {
		if s := f.Slowdown(); s < 1.4 || s > 2.2 {
			t.Fatalf("contended slowdown = %v, want ~1.5-2", s)
		}
	}
}

func TestDeliveredAtPrecedesFinishedAt(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 50_000},
		&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
	eng.Run()
	if f.DeliveredAt <= 0 || f.FinishedAt <= f.DeliveredAt {
		t.Fatalf("DeliveredAt %v must be set and precede FinishedAt %v",
			f.DeliveredAt, f.FinishedAt)
	}
	// The gap is the ACK's return path: ~2us propagation + ACK
	// serialization.
	gap := f.FinishedAt - f.DeliveredAt
	if gap < 2*usec || gap > 2*usec+sim.Microsecond {
		t.Fatalf("ack-path gap = %v, want just above 2us", gap)
	}
}

// TestPacketPoolReuse: the pool bounds live packets to the in-flight set,
// and a recycled packet comes back clean. The lossy row drops data at
// finishTx, in the middle of a serialization-end event, and runs the flow
// to the end on the dropped packets' reuse: each must then arrive as a
// fresh packet, not as what it was when it died.
func TestPacketPoolReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		// lossy opens a link-down window on the switch's egress to the
		// receiver, so data dies at that port's finishTx.
		lossy bool
	}{
		{name: "clean"},
		{name: "dropped at finishTx", lossy: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, nw, sw := star(t, 2, 1)
			if tc.lossy {
				nw.LossRecovery = true
				sw.Ports()[1].ScheduleFlap(10*usec, 20*usec)
			}
			f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1_000_000},
				&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
			eng.Run()
			if !f.Finished() {
				t.Fatal("flow did not finish")
			}
			if err := nw.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if drops := nw.Stats().WireDrops; tc.lossy != (drops > 0) {
				t.Fatalf("lossy=%v but %d wire drops", tc.lossy, drops)
			}
			// 1000 data + 1000 acks flowed, but the pool bounds live
			// packets to the in-flight set; after the run everything is
			// recycled.
			pool := nw.shards[0].pool
			if len(pool) == 0 {
				t.Fatal("packet pool empty after run; recycling broken")
			}
			if len(pool) > 200 {
				t.Fatalf("pool grew to %d packets; expected bounded by in-flight window", len(pool))
			}
			// Recycled packets must be clean, and every one keeps the INT
			// stack it was carved with across the recycle.
			for _, p := range pool {
				if p.run != nil || p.Wire != 0 || p.Mark || p.hop != 0 || p.path != nil {
					t.Fatalf("dirty packet in pool: %+v", p)
				}
				if p.ints == nil || p.intCap == 0 {
					t.Fatalf("pooled packet lost its INT stack: %+v", p)
				}
			}
		})
	}
}

func TestProbePathMatchesAddFlow(t *testing.T) {
	eng, nw, _ := star(t, 3, 1)
	spec := FlowSpec{ID: 9, Src: 1, Dst: 2, Size: 1000}
	hops, baseRTT, minBw, err := nw.ProbePath(spec)
	if err != nil {
		t.Fatalf("ProbePath: %v", err)
	}
	f := nw.AddFlow(spec, &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
	eng.Step() // the start
	if hops != f.Hops() || baseRTT != f.BaseRTT() {
		t.Fatalf("ProbePath (%d, %v) disagrees with AddFlow (%d, %v)",
			hops, baseRTT, f.Hops(), f.BaseRTT())
	}
	if minBw != gbps100 {
		t.Fatalf("minBw = %v, want 100G", minBw)
	}
}

func TestSlowdownMonotoneInContention(t *testing.T) {
	// More competing senders => larger slowdown for the measured flow.
	slow := func(contenders int) float64 {
		eng, nw, _ := star(t, contenders+2, 1)
		f := nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 500_000},
			&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
		for i := 0; i < contenders; i++ {
			nw.AddFlow(FlowSpec{ID: 10 + i, Src: 2 + i, Dst: 0, Size: 500_000},
				&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
		}
		eng.Run()
		return f.Slowdown()
	}
	s0, s2, s6 := slow(0), slow(2), slow(6)
	if !(s0 < s2 && s2 < s6) {
		t.Fatalf("slowdowns not monotone in contention: %v, %v, %v", s0, s2, s6)
	}
	if math.Abs(s0-1) > 0.01 {
		t.Fatalf("uncontended slowdown = %v, want ~1", s0)
	}
}
