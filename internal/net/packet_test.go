package net

import (
	"testing"
	"unsafe"

	"faircc/internal/sim"
)

// TestPacketLayout pins what the per-hop cost rests on: a packet is 128
// bytes with everything a switch hop reads in its first 64, the pool hands
// out packets that each sit on exactly two cache lines, and a flow's run
// slot is whole cache lines.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is for 64-bit words")
	}
	var p Packet
	if s := unsafe.Sizeof(p); s != 128 {
		t.Fatalf("Packet is %d bytes, want 128", s)
	}
	for name, off := range map[string]uintptr{
		"Kind": unsafe.Offsetof(p.Kind),
		"hop":  unsafe.Offsetof(p.hop),
		"Wire": unsafe.Offsetof(p.Wire),
		"dest": unsafe.Offsetof(p.dest),
		"path": unsafe.Offsetof(p.path),
	} {
		if off >= 64 {
			t.Errorf("%s is at offset %d, outside the packet's first cache line", name, off)
		}
	}

	// A run slot is whole cache lines too, so its hot fields stay on the
	// lines flowRun's order puts them on.
	if s := unsafe.Sizeof(flowRun{}); s%64 != 0 {
		t.Errorf("flowRun is %d bytes, want a multiple of 64", s)
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
