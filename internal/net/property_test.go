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
