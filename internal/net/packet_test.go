package net

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestPacketLayout pins what the per-hop cost rests on: a packet is 64
// bytes, one cache line; the pool hands out packets that each sit on a line
// of their own, 64 bytes apart in page-aligned chunks; an INT record is
// three words; and a flow's run slot is whole cache lines.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is for 64-bit words")
	}
	if s := unsafe.Sizeof(Packet{}); s != 64 {
		t.Fatalf("Packet is %d bytes, want 64", s)
	}
	if s := unsafe.Sizeof(cc.Telemetry{}); s != 24 {
		t.Fatalf("cc.Telemetry is %d bytes, want 24", s)
	}

	// A run slot is whole cache lines too, so its hot fields stay on the
	// lines flowRun's order puts them on: the sender's first, on three; the
	// cc.Env, which the algorithm reads on every ACK, from the fourth; the
	// receiver's writes on the last line, away from everything the sender
	// reads.
	var r flowRun
	if s := unsafe.Sizeof(r); s%64 != 0 {
		t.Errorf("flowRun is %d bytes, want a multiple of 64", s)
	}
	for _, f := range []struct {
		name     string
		off, max uintptr
	}{
		{"size", unsafe.Offsetof(r.size), 64},
		{"sent", unsafe.Offsetof(r.sent), 64},
		{"inflight", unsafe.Offsetof(r.inflight), 64},
		{"nextSend", unsafe.Offsetof(r.nextSend), 64},
		{"ctl", unsafe.Offsetof(r.ctl), 128},
		{"acked", unsafe.Offsetof(r.acked), 128},
		{"algo", unsafe.Offsetof(r.algo), 192},
		{"wakeAt", unsafe.Offsetof(r.wakeAt), 192},
		{"rtoDeadline", unsafe.Offsetof(r.rtoDeadline), 192},
	} {
		if f.off+8 > f.max {
			t.Errorf("flowRun.%s at offset %d, want it within the first %d bytes", f.name, f.off, f.max)
		}
	}
	if off := unsafe.Offsetof(r.env); off != 192 {
		t.Errorf("flowRun.env at offset %d, want 192: the fourth line", off)
	}
	if off, last := unsafe.Offsetof(r.delivered), unsafe.Sizeof(r)-64; off < last {
		t.Errorf("flowRun's receiver field at offset %d, want it on the last line, from %d", off, last)
	}

	// Two chunks' worth of fresh packets: every chunk on a page boundary,
	// every slab contiguous within it, so every packet on a line of its own.
	const page = 4096
	sh := New(sim.NewEngine(), 1).shards[0]
	var chunk uintptr
	for slab := 0; slab < 2*packetChunk/packetSlab; slab++ {
		first := sh.getPacket()
		a := uintptr(unsafe.Pointer(first))
		if slab%(packetChunk/packetSlab) == 0 {
			if a%page != 0 {
				t.Fatalf("chunk of slab %d starts at %#x, %d bytes past a page", slab, a, a%page)
			}
			chunk = a
		}
		if want := chunk + uintptr(slab%(packetChunk/packetSlab))*packetSlab*64; a != want {
			t.Fatalf("slab %d starts at %#x, want %#x, right after the chunk's previous slab", slab, a, want)
		}
		if len(sh.pool) != packetSlab-1 {
			t.Fatalf("slab %d left %d packets in the pool, want %d", slab, len(sh.pool), packetSlab-1)
		}
		for i, q := range sh.pool {
			if d := uintptr(unsafe.Pointer(q)) - a; d != uintptr(i+1)*64 {
				t.Fatalf("slab %d: pool packet %d is %d bytes from the slab's first, want %d", slab, i, d, (i+1)*64)
			}
		}
		sh.pool = sh.pool[:0]
	}
	if got := sh.PoolAllocs; got != 2*packetChunk/packetSlab {
		t.Fatalf("PoolAllocs = %d, want one per slab carved", got)
	}
}

// TestBytesPerPacket pins what an in-flight packet costs where the longest
// path is five switches, a fat-tree's: the packet and its INT stack, 64 +
// 5 x 24 = 184 bytes (128 + 5 x 32 = 288 with the two-line packet and the
// four-field record), and reads the same from the allocator when a pool
// carves 8 704 of them, bar the unfilled tails of the last chunks and the
// pool's own slice.
func TestBytesPerPacket(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is for 64-bit words")
	}
	const hops = 5
	if got := unsafe.Sizeof(Packet{}) + hops*unsafe.Sizeof(cc.Telemetry{}); got != 184 {
		t.Fatalf("a packet with a %d-hop INT stack is %d bytes, want 184", hops, got)
	}

	// TotalAlloc is the whole process's: a GC cycle inside the loop adds
	// bytes of its own, so the collector is off while it counts, and
	// another goroutine can still allocate a few KB during one count, so
	// the least of three counts is read.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 136 * packetSlab
	per := math.Inf(1)
	for range 3 {
		nw := New(sim.NewEngine(), 1)
		nw.maxHops = hops
		sh := nw.shards[0]
		held := make([]*Packet, 0, n)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.TotalAlloc
		for range n {
			held = append(held, sh.getPacket())
		}
		runtime.ReadMemStats(&ms)
		per = min(per, float64(ms.TotalAlloc-base)/n)
		for _, p := range held {
			if p.intCap != hops {
				t.Fatalf("packet carved with an INT stack of %d records, want %d", p.intCap, hops)
			}
		}
	}
	t.Logf("%.1f B per packet carved with a %d-hop INT stack", per, hops)
	if per > 185 {
		t.Errorf("%.1f B per packet, want at most 185", per)
	}
}

// TestINTStackDepth: a data packet stamps every switch of its flow's path
// into its own INT stack. In the second row the longer flow is added after
// the pool has carved packets whose stacks are one record deep: its packets
// must take fresh, deeper stacks, and the short stacks, which sit back to
// back, must keep every record they held.
func TestINTStackDepth(t *testing.T) {
	for _, c := range []struct {
		name string
		late bool // add the three-switch flow once one-switch packets are carved
	}{
		{"path known at carve time", false},
		{"longer path after packets are carved", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			// a, b on sw0; sw0 - sw1 - sw2; d on sw2.
			eng := sim.NewEngine()
			nw := New(eng, 1)
			a, b, d := nw.AddHost(), nw.AddHost(), nw.AddHost()
			sw := []*Switch{nw.AddSwitch(), nw.AddSwitch(), nw.AddSwitch()}
			toA, _ := nw.Connect(sw[0], a, gbps100, usec)
			toB, _ := nw.Connect(sw[0], b, gbps100, usec)
			toD, _ := nw.Connect(sw[2], d, gbps100, usec)
			up01, down10 := nw.Connect(sw[0], sw[1], 400e9, usec)
			up12, down21 := nw.Connect(sw[1], sw[2], 200e9, usec)
			sw[0].AddRoute(a.NodeID(), toA)
			sw[0].AddRoute(b.NodeID(), toB)
			sw[0].AddRoute(d.NodeID(), up01)
			sw[1].AddRoute(d.NodeID(), up12)
			sw[1].AddRoute(a.NodeID(), down10)
			sw[2].AddRoute(a.NodeID(), down21)
			sw[2].AddRoute(d.NodeID(), toD)

			short := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
			long := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
			nw.AddFlow(FlowSpec{ID: 1, Src: a.NodeID(), Dst: b.NodeID(), Size: 100_000}, short)
			if !c.late {
				nw.AddFlow(FlowSpec{ID: 2, Src: a.NodeID(), Dst: d.NodeID(), Size: 100_000, Start: 50 * usec}, long)
			}
			eng.Run()
			if c.late {
				// Mark every pooled stack, then run the long flow.
				sentinel := cc.Telemetry{QueueBytes: -1, TxBytes: -2, TS: -3}
				var marked [][]cc.Telemetry
				for _, p := range nw.shards[0].pool {
					s := p.stack()
					if len(s) != 1 {
						t.Fatalf("pooled stack of %d records before the long flow, want 1", len(s))
					}
					for i := range s {
						s[i] = sentinel
					}
					marked = append(marked, s)
				}
				nw.AddFlow(FlowSpec{ID: 2, Src: a.NodeID(), Dst: d.NodeID(), Size: 100_000, Start: eng.Now()}, long)
				eng.Run()
				for i, s := range marked {
					for j, rec := range s {
						if rec != sentinel {
							t.Fatalf("pooled stack %d record %d changed to %+v by a packet that was not its own", i, j, rec)
						}
					}
				}
			}
			if !nw.AllFinished() {
				t.Fatal("flows did not finish")
			}

			// The last ACK's stack, back in the pool with it and untouched
			// since.
			hops := long.last.Hops
			if len(hops) != 3 {
				t.Fatalf("the long flow's INT stack has %d records, want 3", len(hops))
			}
			for i, h := range hops {
				if h.TxBytes <= 0 || h.TS <= 0 || i > 0 && h.TS <= hops[i-1].TS {
					t.Fatalf("hop %d not stamped in path order: %+v", i, hops)
				}
			}
			if want := []float64{400e9, 200e9, gbps100}; len(long.hopBps) != 3 ||
				long.hopBps[0] != want[0] || long.hopBps[1] != want[1] || long.hopBps[2] != want[2] {
				t.Fatalf("hop rates = %v, want %v", long.hopBps, want)
			}
		})
	}
}
