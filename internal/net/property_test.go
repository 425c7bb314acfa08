package net

import (
	"math/rand"
	"testing"
	"testing/quick"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestConservationProperty: for arbitrary small traffic patterns on a
// star (random sizes, sources, destinations, start times, rates), every
// flow finishes, delivers exactly its size, and the network passes its
// conservation checks. This is the simulator's core correctness
// invariant under randomized inputs.
func TestConservationProperty(t *testing.T) {
	type flowGene struct {
		Src, Dst uint8
		SizeKB   uint8
		StartUs  uint8
		RateDiv  uint8
	}
	prop := func(genes []flowGene, seed int64) bool {
		if len(genes) > 12 {
			genes = genes[:12]
		}
		eng := sim.NewEngine()
		nw := New(eng, seed)
		const hosts = 6
		hs := make([]*Host, hosts)
		for i := range hs {
			hs[i] = nw.AddHost()
		}
		sw := nw.AddSwitch()
		for _, h := range hs {
			sp, _ := nw.Connect(sw, h, gbps100, usec)
			sw.AddRoute(h.NodeID(), sp)
		}
		id := 0
		for _, g := range genes {
			src := int(g.Src) % hosts
			dst := int(g.Dst) % hosts
			if src == dst {
				dst = (dst + 1) % hosts
			}
			id++
			rate := gbps100 / float64(1+g.RateDiv%8)
			nw.AddFlow(FlowSpec{
				ID:    id,
				Src:   src,
				Dst:   dst,
				Size:  int64(g.SizeKB)*1000 + 1, // 1 B .. 255 KB
				Start: sim.Time(g.StartUs) * usec,
			}, &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: rate}})
		}
		eng.Run()
		if !nw.AllFinished() {
			return false
		}
		if err := nw.CheckConservation(); err != nil {
			t.Logf("conservation: %v", err)
			return false
		}
		for i := range nw.NumFlows() {
			f := nw.Flow(i)
			if f.Delivered() != f.Spec.Size || f.Acked() != f.Spec.Size {
				return false
			}
			if f.FCT() <= 0 || f.Slowdown() < 1-1e-9 {
				t.Logf("flow %d: fct=%v slowdown=%v", f.Spec.ID, f.FCT(), f.Slowdown())
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(99)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConservationPropertyWithPFC repeats the invariant with finite
// buffers and PFC engaged at an aggressive threshold, where pause/resume
// cycles constantly interrupt transmission.
func TestConservationPropertyWithPFC(t *testing.T) {
	prop := func(sizes []uint8, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 8 {
			sizes = sizes[:8]
		}
		eng := sim.NewEngine()
		nw := New(eng, seed)
		nw.PFCPauseBytes = 10_000 // aggressive: constant pausing
		hs := make([]*Host, len(sizes)+1)
		for i := range hs {
			hs[i] = nw.AddHost()
		}
		sw := nw.AddSwitch()
		for _, h := range hs {
			sp, _ := nw.Connect(sw, h, gbps100, usec)
			sw.AddRoute(h.NodeID(), sp)
		}
		dst := hs[len(sizes)].NodeID()
		for i, s := range sizes {
			nw.AddFlow(FlowSpec{ID: i + 1, Src: hs[i].NodeID(), Dst: dst,
				Size: int64(s)*500 + 1},
				&fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
		}
		eng.Run()
		return nw.AllFinished() && nw.CheckConservation() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLosslessnessPropertyWithPFC: the PFC headroom invariant. With
// aggressive pause/resume thresholds and finite buffers on every switch
// port sized for worst-case pause slack, randomized multihop workloads
// must finish with zero drops: PFC backpressure reaches the sources
// before any switch buffer can overflow. Loss recovery stays off — if
// the invariant ever breaks, flows wedge and the property fails loudly.
func TestLosslessnessPropertyWithPFC(t *testing.T) {
	type flowGene struct {
		Src, Dst uint8
		SizeKB   uint8
		StartUs  uint8
	}
	prop := func(genes []flowGene, seed int64) bool {
		if len(genes) == 0 {
			return true
		}
		if len(genes) > 10 {
			genes = genes[:10]
		}
		eng := sim.NewEngine()
		nw := New(eng, seed)
		nw.PFCPauseBytes = 10_000 // aggressive: constant pause/resume cycling

		// Two switches, three hosts each; cross-switch flows exercise the
		// cascaded pause path.
		const hosts = 6
		hs := make([]*Host, hosts)
		for i := range hs {
			hs[i] = nw.AddHost()
		}
		sw1, sw2 := nw.AddSwitch(), nw.AddSwitch()
		s12, s21 := nw.Connect(sw1, sw2, gbps100, usec)
		for i, h := range hs {
			sw := sw1
			if i >= hosts/2 {
				sw = sw2
			}
			sp, _ := nw.Connect(sw, h, gbps100, usec)
			sw.AddRoute(h.NodeID(), sp)
		}
		// Routes across the inter-switch link, plus finite buffers on
		// every switch port. The budget per egress is the sum over ingress
		// ports of pause threshold + in-flight slack (~2 link-RTTs at
		// 100G ≈ 26 KB each); 300 KB covers the worst case with room.
		for i, h := range hs {
			if i < hosts/2 {
				sw2.AddRoute(h.NodeID(), s21)
			} else {
				sw1.AddRoute(h.NodeID(), s12)
			}
		}
		for _, sw := range []*Switch{sw1, sw2} {
			for _, p := range sw.Ports() {
				p.SetBuffer(300_000)
			}
		}

		for id, g := range genes {
			src := int(g.Src) % hosts
			dst := int(g.Dst) % hosts
			if src == dst {
				dst = (dst + 1) % hosts
			}
			nw.AddFlow(FlowSpec{
				ID:    id + 1,
				Src:   src,
				Dst:   dst,
				Size:  int64(g.SizeKB)*800 + 1,
				Start: sim.Time(g.StartUs) * usec,
			}, &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
		}
		eng.Run()
		st := nw.Stats()
		if st.Drops() != 0 {
			t.Logf("losslessness violated: %d drops (%d buffer) with PFC on", st.Drops(), st.BufferDrops)
			return false
		}
		return nw.AllFinished() && nw.CheckConservation() == nil
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(7)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
