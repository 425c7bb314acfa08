package net_test

import (
	"testing"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/cc/timely"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// TestFlowStartAllocatesNothing: starting a flow — initializing its
// algorithm, filling in its cc.Env, sending its first packet and arming its
// pacing wakeup — allocates nothing, for every protocol whose variants the
// experiments run. Two batches of 64 flows start on an 8-host fat-tree,
// each batch at one instant: the first warms the packet pools, port queues
// and the scheduler's heap, and drains; every engine step at the second
// batch's instant is then one flow's start.
func TestFlowStartAllocatesNothing(t *testing.T) {
	const batch = 64
	minBDPDelay := 4 * sim.Microsecond
	cases := []struct {
		name string
		algo func() cc.Algorithm
	}{
		{"hpcc", func() cc.Algorithm { return hpcc.New(hpcc.DefaultConfig()) }},
		{"hpcc-vaisf", func() cc.Algorithm { return hpcc.New(hpcc.VAISFConfig(50_000)) }},
		{"swift", func() cc.Algorithm { return swift.New(swift.DefaultConfig(100)) }},
		{"swift-vaisf", func() cc.Algorithm { return swift.New(swift.VAISFConfig(minBDPDelay)) }},
		{"timely-vaisf", func() cc.Algorithm { return timely.New(timely.VAISFConfig(minBDPDelay)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ftCfg := topo.DefaultFatTree().Scaled(2, 2, 2)
			eng := sim.NewEngine()
			nw := net.New(eng, 1)
			topo.NewFatTree(nw, ftCfg)
			hosts := ftCfg.NumHosts()
			second := sim.Millisecond
			for i := range 2 * batch {
				src := i % hosts
				start := sim.Time(0)
				if i >= batch {
					start = second
				}
				nw.AddFlow(net.FlowSpec{ID: i + 1, Src: src, Dst: (src + 1 + i/hosts%(hosts-1)) % hosts,
					Size: 3_000, Start: start}, c.algo())
			}
			eng.RunUntil(second - 1)
			for i := range batch {
				if f := nw.Flow(i); !f.Finished() {
					t.Fatalf("warm-up flow %d did not finish before the second batch", f.Spec.ID)
				}
			}
			if at, ok := eng.NextEventTime(); !ok || at != second {
				t.Fatalf("next event at %v (%v), want the second batch's start at %v", at, ok, second)
			}

			allocs := testing.AllocsPerRun(batch-1, func() { eng.Step() })
			for i := batch; i < nw.NumFlows(); i++ {
				if f := nw.Flow(i); !f.Started() {
					t.Fatalf("flow %d did not start in the measured steps", f.Spec.ID)
				}
			}
			if eng.Now() != second {
				t.Fatalf("measured steps ran past the starts, to %v", eng.Now())
			}
			if allocs != 0 {
				t.Fatalf("starting a flow allocated %v times, want 0", allocs)
			}
		})
	}
}
