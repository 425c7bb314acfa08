package net_test

import (
	"reflect"
	"runtime"
	"testing"

	"faircc/internal/cc/hpcc"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// heapCap is the capacity of an engine's event heap. The heap is internal
// to the scheduler and has no counter of its own; a renamed field panics
// here rather than passing silently.
func heapCap(eng *sim.Engine) int {
	return reflect.ValueOf(eng).Elem().FieldByName("q").FieldByName("h").Cap()
}

// TestFatTreeRunIsAllocationFlat is TestSteadyStateStepDoesNotAllocate on
// the event-time distribution of the recorded figures: an 8-host fat-tree
// under 0.2 ms of Hadoop traffic at 50% load (fig10 at its smallest). The
// fixed-window fabric of that test never changes its number of pending
// events, which is how scheduler storage that allocated 76 B per event on
// the 320-host fabric passed it. Here, once the first 20 000 events have
// warmed pools and queues, the rest of the run — arrivals, flow
// completions, the drain of the long flows — may allocate only for what it
// adds: one allocation per flow yet to see its first ACK (HPCC's copy of
// the INT stack it measures against), two per packet-slab miss (its share
// of a packet chunk and of an INT-record chunk, and the pool's growth), and one
// per resize of an egress queue's ring. Starting a flow, pacing, stamping
// and echoing INT must allocate nothing. The scheduler's heap may grow only
// as far as append's doubling takes it past the peak number of pending
// events.
func TestFatTreeRunIsAllocationFlat(t *testing.T) {
	ftCfg := topo.DefaultFatTree().Scaled(2, 2, 2)
	hosts := make([]int, ftCfg.NumHosts())
	for i := range hosts {
		hosts[i] = i
	}
	specs := workload.Poisson(workload.PoissonConfig{
		Hosts:    hosts,
		Sizes:    workload.Hadoop(),
		Load:     0.5,
		LinkBps:  ftCfg.HostBps,
		Duration: 200 * sim.Microsecond,
		Seed:     1,
	})
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	topo.NewFatTree(nw, ftCfg)
	for _, spec := range specs {
		nw.AddFlow(spec, hpcc.New(hpcc.DefaultConfig()))
	}
	for i := 0; i < 20_000; i++ {
		if !eng.Step() {
			t.Fatal("simulation drained during warmup")
		}
	}
	warm, warmCap := eng.Stats(), heapCap(eng)
	warmStats, warmRings := nw.Stats(), net.QueueRings(nw)
	unacked := 0
	for i := range nw.NumFlows() {
		if nw.Flow(i).Acked() == 0 {
			unacked++
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for !nw.AllFinished() && eng.Step() {
	}
	runtime.ReadMemStats(&after)
	if !nw.AllFinished() {
		t.Fatal("flows did not finish")
	}

	end, endStats := eng.Stats(), nw.Stats()
	events := end.Steps - warm.Steps
	if events < 100_000 || warm.PeakPending < 100 || unacked < 20 {
		t.Fatalf("run too small to pin anything: %d events after warmup, %d pending at most, %d flows yet to be acked",
			events, warm.PeakPending, unacked)
	}
	// Rings double from queueMinCap (16) and never shrink: a ring that
	// ends longer than it started grew exactly that many times.
	var resizes int64
	for i, r := range net.QueueRings(nw) {
		for w := max(warmRings[i], 8); w < r; w *= 2 {
			resizes++
		}
	}
	misses := endStats.PoolAllocs - warmStats.PoolAllocs
	mallocs, allowed := after.Mallocs-before.Mallocs, uint64(unacked)+uint64(2*misses+resizes)
	t.Logf("%d allocations over %d events: %d flows yet to be acked, %d packet-slab misses, %d queue resizes",
		mallocs, events, unacked, misses, resizes)
	if mallocs > allowed {
		t.Fatalf("run phase made %d allocations over %d events, want at most %d: one per flow yet to be acked (%d), two per packet-slab miss (%d), one per queue resize (%d)",
			mallocs, events, allowed, unacked, misses, resizes)
	}
	if c := heapCap(eng); c > warmCap && c > 2*end.PeakPending {
		t.Fatalf("scheduler heap grew from %d to %d entries while peak pending grew from %d to %d",
			warmCap, c, warm.PeakPending, end.PeakPending)
	}
}

// TestShardedFatTreeRunIsAllocationFlat is the fabric and traffic above, for
// 1 ms, through the 2-shard parallel engine, where a packet crossing the pod
// boundary is handed to the other shard's engine through a mailbox instead
// of a lane. The hand-off carries the packet itself as the event; wrapping
// it per packet — a method value, a closure — would be an allocation for
// every crossing. The whole run, warm-up included (a sharded run cannot be
// stopped and resumed), must make fewer allocations than a quarter of the
// hand-offs it performs, and each shard's scheduler heap — every hand-off
// passes through it — must end within append's doubling of that shard's peak
// number of pending events.
func TestShardedFatTreeRunIsAllocationFlat(t *testing.T) {
	ftCfg := topo.DefaultFatTree().Scaled(2, 2, 2)
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
	nw := net.New(sim.NewEngine(), 1)
	ft := topo.NewFatTree(nw, ftCfg)
	assign, k := ft.ShardMap(2)
	if k != 2 {
		t.Fatalf("ShardMap(2) used %d shards", k)
	}
	nw.Shard(assign, k)
	// Every data packet of a flow between the shards crosses at least once,
	// and so does its ACK.
	var handOffs uint64
	for _, spec := range specs {
		nw.AddFlow(spec, hpcc.New(hpcc.DefaultConfig()))
		if assign[spec.Src] != assign[spec.Dst] {
			handOffs += 2 * uint64((spec.Size+int64(nw.MTU)-1)/int64(nw.MTU))
		}
	}
	if handOffs < 10_000 {
		t.Fatalf("run too small to pin anything: %d cross-shard hand-offs", handOffs)
	}
	par := nw.NewParallel()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := par.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !nw.AllFinished() {
		t.Fatal("flows did not finish")
	}
	if mallocs := after.Mallocs - before.Mallocs; 4*mallocs > handOffs {
		t.Fatalf("sharded run made %d allocations for at least %d cross-shard hand-offs, want under one per four",
			mallocs, handOffs)
	}
	for i, eng := range nw.ShardEngines() {
		if c, peak := heapCap(eng), eng.Stats().PeakPending; c > 2*peak+64 {
			t.Fatalf("shard %d's scheduler heap holds %d entries after a run that never had more than %d pending", i, c, peak)
		}
	}
}
