package net_test

import (
	"runtime"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// TestAddFlowAllocatesInChunks: a flow costs a slot in the network's flow
// slab and no path — the start walks it — and its start is posted on the
// engine's posted lane, not queued through a func value and an event slot.
// Adding 4096 flows, in start order, to a built 32-host fat-tree may make at
// most one allocation per 16 flows — growing the flow slab, the flow list
// and the posted lane.
func TestAddFlowAllocatesInChunks(t *testing.T) {
	const flows = 4096
	ftCfg := topo.DefaultFatTree().Scaled(2, 2, 8)
	nw := net.New(sim.NewEngine(), 1)
	topo.NewFatTree(nw, ftCfg)
	hosts := ftCfg.NumHosts()
	specs := make([]net.FlowSpec, flows)
	algos := make([]cc.Algorithm, flows)
	for i := range specs {
		src := i % hosts
		specs[i] = net.FlowSpec{ID: i + 1, Src: src, Dst: (src + 1 + i/hosts%(hosts-1)) % hosts,
			Size: 10_000, Start: sim.Time(i) * 100 * sim.Nanosecond}
		algos[i] = hpcc.New(hpcc.DefaultConfig())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, spec := range specs {
		nw.AddFlow(spec, algos[i])
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; 16*mallocs > flows {
		t.Errorf("adding %d flows made %d allocations, want at most one per 16 flows", flows, mallocs)
	}
}

// BenchmarkAddFlows times AddFlow alone: one op adds a 1 ms, 50%-load
// Hadoop flow set to the paper's 320-host fat-tree, built afresh (untimed)
// for every op along with the flows' algorithm instances.
func BenchmarkAddFlows(b *testing.B) {
	ftCfg := topo.DefaultFatTree()
	hosts := make([]int, ftCfg.NumHosts())
	for i := range hosts {
		hosts[i] = i
	}
	specs := workload.Poisson(workload.PoissonConfig{
		Hosts:    hosts,
		Sizes:    workload.Hadoop(),
		Load:     0.5,
		LinkBps:  ftCfg.HostBps,
		Duration: sim.Millisecond,
		Seed:     1,
	})
	algos := make([]cc.Algorithm, len(specs))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		nw := net.New(sim.NewEngine(), 1)
		topo.NewFatTree(nw, ftCfg)
		for i := range algos {
			algos[i] = hpcc.New(hpcc.DefaultConfig())
		}
		b.StartTimer()
		for i, spec := range specs {
			nw.AddFlow(spec, algos[i])
		}
	}
	b.ReportMetric(float64(len(specs)), "flows/op")
}
