package net

import (
	"testing"
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestPacketLayout pins what the per-hop cost rests on: a packet is 128
// bytes with everything a switch hop reads in its first 64, and the pool
// hands out packets that each sit on exactly two cache lines.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is for 64-bit words")
	}
	var p Packet
	if s := unsafe.Sizeof(p); s != 128 {
		t.Fatalf("Packet is %d bytes, want 128", s)
	}
	for name, off := range map[string]uintptr{
		"Kind":      unsafe.Offsetof(p.Kind),
		"hop":       unsafe.Offsetof(p.hop),
		"Wire":      unsafe.Offsetof(p.Wire),
		"dest":      unsafe.Offsetof(p.dest),
		"path":      unsafe.Offsetof(p.path),
		"pathEpoch": unsafe.Offsetof(p.pathEpoch),
	} {
		if off >= 64 {
			t.Errorf("%s is at offset %d, outside the packet's first cache line", name, off)
		}
	}

	// Two chunks' worth of fresh packets: every one on a line boundary,
	// every slab contiguous.
	sh := New(sim.NewEngine(), 1).shards[0]
	for slab := 0; slab < 2*packetChunk/packetSlab; slab++ {
		first := sh.getPacket()
		if a := uintptr(unsafe.Pointer(first)); a%64 != 0 {
			t.Fatalf("slab %d starts at %#x, %d bytes past a cache line", slab, a, a%64)
		}
		if len(sh.pool) != packetSlab-1 {
			t.Fatalf("slab %d left %d packets in the pool, want %d", slab, len(sh.pool), packetSlab-1)
		}
		for i, q := range sh.pool {
			if d := uintptr(unsafe.Pointer(q)) - uintptr(unsafe.Pointer(first)); d != uintptr(i+1)*128 {
				t.Fatalf("slab %d: pool packet %d is %d bytes from the slab's first, want %d", slab, i, d, (i+1)*128)
			}
		}
		sh.pool = sh.pool[:0]
	}
	if got := sh.PoolAllocs; got != 2*packetChunk/packetSlab {
		t.Fatalf("PoolAllocs = %d, want one per slab carved", got)
	}
}

// TestRouteChangeReroutesPacketsInFlight pins what Packet.pathEpoch means: a
// route added while packets are in flight makes every switch resolve them —
// the ones already launched included — by per-hop lookup, and the run still
// finishes every flow and conserves every byte.
func TestRouteChangeReroutesPacketsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, 1)
	h0, h1 := nw.AddHost(), nw.AddHost()
	s0, s1 := nw.AddSwitch(), nw.AddSwitch()
	_, s0h0 := nw.Connect(h0, s0, gbps100, usec)
	_, s1h1 := nw.Connect(h1, s1, gbps100, usec)
	a0, a1 := nw.Connect(s0, s1, gbps100, usec)
	b0, b1 := nw.Connect(s0, s1, gbps100, usec)
	s0.AddRoute(h0.id, s0h0)
	s1.AddRoute(h1.id, s1h1)
	s0.AddRoute(h1.id, a0)
	s1.AddRoute(h0.id, a1)

	for id := 1; id <= 8; id++ {
		nw.AddFlow(FlowSpec{ID: id, Src: h0.id, Dst: h1.id, Size: 400_000},
			&fixedAlgo{ctl: cc.Control{WindowBytes: 64_000, RateBps: gbps100}})
	}
	eng.RunUntil(20 * usec)
	if nw.Stats().DataDelivered == 0 || nw.AllFinished() {
		t.Fatal("the route change must land mid-run, with packets in flight")
	}
	// The second inter-switch link joins both routes: each becomes an ECMP
	// group, and every stamped path goes stale.
	s0.AddRoute(h1.id, b0)
	s1.AddRoute(h0.id, b1)
	eng.Run()

	if !nw.AllFinished() {
		t.Fatal("flows did not finish after the route change")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if b0.TxBytes() == 0 || b1.TxBytes() == 0 {
		t.Fatalf("second link carried %d / %d bytes: packets with a stale path were not re-routed per hop",
			b0.TxBytes(), b1.TxBytes())
	}
}
