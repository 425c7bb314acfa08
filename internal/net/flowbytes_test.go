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
// 100 ns, once after AddFlow — the flow, its paths and its algorithm — and
// again once every flow has started, which adds what starting binds, the
// algorithm's state from its first ACKs, and the packets then in flight or
// pooled, with their INT stacks. It also pins the size of a Flow and that
// every pooled packet carries an INT stack exactly as deep as the longest
// flow path.
//
// Before flows started without allocating — with a 416-byte Flow, pointer
// VAI configs, four func values bound per start and INT stacks grown by
// append — this read 791 B per HPCC VAI SF flow at set-up and 1 161 B once
// started, and 743 and 1 049 B per default-HPCC flow. A started HPCC VAI SF
// flow must cost at least 15% less than that, and nothing else more.
func TestBytesPerFlow(t *testing.T) {
	if s := unsafe.Sizeof(net.Flow{}); s > 352 {
		t.Errorf("net.Flow is %d bytes, want at most 352", s)
	}
	cases := []struct {
		name               string
		algo               func() cc.Algorithm
		setupMax, startMax uint64 // bytes per flow
	}{
		{"hpcc-vaisf", func() cc.Algorithm { return hpcc.New(hpcc.VAISFConfig(50_000)) }, 791, 986},
		{"hpcc", func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }, 743, 1_049},
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
			last := nw.Flows()[flows-1]
			for !last.Started() && eng.Step() {
			}
			if !last.Started() {
				t.Fatal("the last flow never started")
			}
			started := (liveHeap() - base) / flows
			t.Logf("%d B per flow after AddFlow, %d B once every flow has started", setup, started)
			if setup > c.setupMax || started > c.startMax {
				t.Errorf("%d B per flow at set-up and %d B started, want at most %d and %d",
					setup, started, c.setupMax, c.startMax)
			}

			for !nw.AllFinished() && eng.Step() {
			}
			if !nw.AllFinished() {
				t.Fatal("flows did not finish")
			}
			longest := 0
			for _, f := range nw.Flows() {
				longest = max(longest, f.Hops())
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
