package net_test

import (
	"runtime"
	"testing"
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// liveHeap returns the bytes the heap holds after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerFlow measures what a flow costs in heap bytes on a 32-host
// fat-tree (5-hop paths): 4096 flows of 10 packets each, one starting every
// 100 ns. It reads three figures: after AddFlow — the handle and the
// algorithm; once every flow has started — the handles, plus what the flows
// then running hold: run slots with their paths, algorithms with their state
// from the first ACKs, and the packets in flight or pooled, with their INT
// stacks; and once every flow has finished, when only the handles, the
// shard's free run slots and the packet pool are left. It also pins the size
// of the handle and that every pooled packet carries an INT stack exactly as
// deep as the longest flow path.
//
// With the whole run state in a 344-byte net.Flow carved at AddFlow, with
// its path, and kept, this read 733 B per flow at set-up and 958 B once
// started, HPCC VAI SF and default HPCC alike. With a 176-byte handle, a
// 32-byte entry per flow on the engine's lane of posted starts and a
// 72-byte cc.Env copied into each algorithm (HPCC at 320 bytes), it read
// 498 B per flow at set-up. With a 184-byte handle and an 8-byte entry
// per flow in the network's index of handles, it read 412 B; with a
// 160-byte handle, carved from slabs that are the network's one record of
// its flows, 376 B. With HPCC's fixed numbers (eta, maxStage, the VAI bank
// cap) constants rather than per-flow Config fields, HPCC is 232 bytes in
// the allocator's 240-byte class, not 256, and it reads 360 B.
func TestBytesPerFlow(t *testing.T) {
	if s := unsafe.Sizeof(net.Flow{}); s > 160 {
		t.Errorf("net.Flow is %d bytes, want at most 160", s)
	}
	cases := []struct {
		name                          string
		algo                          func() cc.Algorithm
		setupMax, startMax, finishMax uint64 // bytes per flow
	}{
		{"hpcc-vaisf", func() cc.Algorithm { return hpcc.New(hpcc.VAISFConfig(50_000)) }, 376, 336, 328},
		{"hpcc", func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }, 376, 336, 328},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const flows = 4096
			ftCfg := topo.DefaultFatTree().Scaled(2, 2, 8)
			eng := sim.NewEngine()
			nw := net.New(eng, 1)
			topo.NewFatTree(nw, ftCfg)
			hosts := ftCfg.NumHosts()
			specs := make([]net.FlowSpec, flows)
			for i := range specs {
				src := i % hosts
				specs[i] = net.FlowSpec{ID: i + 1, Src: src, Dst: (src + 1 + i/hosts%(hosts-1)) % hosts,
					Size: 10_000, Start: sim.Time(i) * 100 * sim.Nanosecond}
			}

			base := liveHeap()
			for _, spec := range specs {
				nw.AddFlow(spec, c.algo())
			}
			setup := (liveHeap() - base) / flows
			last := nw.Flow(flows - 1)
			for !last.Started() && eng.Step() {
			}
			if !last.Started() {
				t.Fatal("the last flow never started")
			}
			started := (liveHeap() - base) / flows

			for !nw.AllFinished() && eng.Step() {
			}
			if !nw.AllFinished() {
				t.Fatal("flows did not finish")
			}
			finished := (liveHeap() - base) / flows
			t.Logf("%d B per flow after AddFlow, %d B once every flow has started, %d B once every flow has finished",
				setup, started, finished)
			if setup > c.setupMax || started > c.startMax || finished > c.finishMax {
				t.Errorf("%d B per flow at set-up, %d B started and %d B finished, want at most %d, %d and %d",
					setup, started, finished, c.setupMax, c.startMax, c.finishMax)
			}
			longest := 0
			for i := range nw.NumFlows() {
				longest = max(longest, nw.Flow(i).Hops())
			}
			caps := net.PooledStackCaps(nw)
			if len(caps) == 0 {
				t.Fatal("no pooled packets")
			}
			for i, c := range caps {
				if c != longest {
					t.Fatalf("pooled packet %d of %d has an INT stack of capacity %d, want the longest path's %d",
						i, len(caps), c, longest)
				}
			}
		})
	}
}
