package net_test

import (
	"fmt"
	"runtime"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// TestAddFlowAllocatesInChunks: a flow costs a slot in one of the network's
// flow slabs and no path — the start walks it — and its start waits in its
// shard's start queue, linked through the handle, not in a queue entry of
// its own. Adding 4096 flows, in start order, to a built
// 32-host fat-tree may make at most one allocation per 16 flows — carving
// flow slabs and growing their list.
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

// TestOneStartPendingPerShard: flows added in start order hold no event of
// their own until they start. After 10 000 AddFlows spread over 1 ms, each
// shard engine has one event pending, its start event, whether the fat-tree
// runs whole or cut into two shards; and over the run the pending peak stays
// below the flow count, which an event per start would have put it above.
func TestOneStartPendingPerShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const flows = 10_000
			ftCfg := topo.DefaultFatTree().Scaled(2, 2, 8)
			nw := net.New(sim.NewEngine(), 1)
			ft := topo.NewFatTree(nw, ftCfg)
			if shards > 1 {
				nw.Shard(ft.ShardMap(shards))
			}
			hosts := ftCfg.NumHosts()
			for i := range flows {
				src := i % hosts
				nw.AddFlow(net.FlowSpec{ID: i + 1, Src: src, Dst: (src + 1 + i/hosts%(hosts-1)) % hosts,
					Size: 1_000, Start: sim.Time(i) * sim.Millisecond / flows}, hpcc.New(hpcc.DefaultConfig()))
			}
			engines := nw.ShardEngines()
			if len(engines) != shards {
				t.Fatalf("%d shard engines, want %d", len(engines), shards)
			}
			for i, eng := range engines {
				if got := eng.Pending(); got != 1 {
					t.Errorf("shard %d: %d events pending after %d AddFlows, want 1", i, got, flows)
				}
			}
			if shards > 1 {
				if err := nw.NewParallel().Run(); err != nil {
					t.Fatal(err)
				}
			} else {
				for !nw.AllFinished() && nw.Eng.Step() {
				}
			}
			if !nw.AllFinished() {
				t.Fatal("flows did not finish")
			}
			for i, eng := range engines {
				if peak := eng.Stats().PeakPending; peak >= flows {
					t.Errorf("shard %d: %d events pending at the peak, want fewer than the %d flows", i, peak, flows)
				}
			}
		})
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
