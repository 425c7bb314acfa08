package net

import (
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// benchFabric builds a 4x4x4 leaf-spine carrying 128 cross-fabric flows —
// enough ECMP spread and queue contention to exercise the forwarding fast
// path, small enough to rebuild per benchmark iteration.
func benchFabric(tb testing.TB, flowBytes int64) (*sim.Engine, *Network) {
	tb.Helper()
	eng := sim.NewEngine()
	nw := New(eng, 1)
	tors := make([]*Switch, 4)
	spines := make([]*Switch, 4)
	for i := range tors {
		tors[i] = nw.AddSwitch()
	}
	for i := range spines {
		spines[i] = nw.AddSwitch()
	}
	uplinks := make([][]*Port, len(tors))
	downlinks := make([][]*Port, len(tors)) // [tor][spine]
	for ti, tor := range tors {
		for _, sp := range spines {
			up, down := nw.Connect(tor, sp, gbps100, usec)
			uplinks[ti] = append(uplinks[ti], up)
			downlinks[ti] = append(downlinks[ti], down)
		}
	}
	var hosts []*Host
	for ti, tor := range tors {
		for h := 0; h < 4; h++ {
			host := nw.AddHost()
			hosts = append(hosts, host)
			tp, _ := nw.Connect(tor, host, gbps100, usec)
			tor.AddRoute(host.NodeID(), tp)
			for si := range spines {
				spines[si].AddRoute(host.NodeID(), downlinks[ti][si])
			}
		}
	}
	for ti, tor := range tors {
		for hi, host := range hosts {
			if hi/4 != ti {
				tor.AddRoute(host.NodeID(), uplinks[ti]...)
			}
		}
	}
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 150_000, RateBps: gbps100}}
	id := 1
	for _, src := range hosts {
		for k := 1; k <= 8; k++ {
			dst := hosts[(src.NodeID()*3+k*5)%len(hosts)]
			if dst == src {
				continue
			}
			nw.AddFlow(FlowSpec{
				ID: id, Src: src.NodeID(), Dst: dst.NodeID(), Size: flowBytes,
			}, algo)
			id++
		}
	}
	return eng, nw
}

// BenchmarkFabricForwarding is the net-layer throughput microbenchmark:
// events/sec through the full per-packet pipeline
// (flat-path switching, port serialization, host ACK turnaround) on a
// leaf-spine fabric. allocs/op catches any hot-path allocation creep.
func BenchmarkFabricForwarding(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		eng, nw := benchFabric(b, 150_000)
		eng.Run()
		if !nw.AllFinished() {
			b.Fatal("flows did not finish")
		}
		events += eng.Steps()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSteadyStateStep measures the per-event cost in an established
// simulation (pools warm, paths resolved): the number the tentpole's
// fast-path work targets.
func BenchmarkSteadyStateStep(b *testing.B) {
	eng, nw := benchFabric(b, 2_000_000)
	// Warm up: pools filled, flat paths armed, queues busy.
	for i := 0; i < 50_000; i++ {
		if !eng.Step() {
			b.Fatal("simulation drained during warmup")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			b.StopTimer()
			// Rare at realistic b.N, but restartable: rebuild and refill.
			eng, nw = benchFabric(b, 2_000_000)
			for j := 0; j < 50_000; j++ {
				eng.Step()
			}
			b.StartTimer()
		}
	}
	_ = nw
}

// TestSteadyStateStepDoesNotAllocate pins the hot path's allocation story:
// once pools are warm, the per-event hot path allocates nothing — packet
// pool misses stay exactly flat, and total allocations (including the
// scheduler's arrays) stay far below one per thousand events.
func TestSteadyStateStepDoesNotAllocate(t *testing.T) {
	eng, nw := benchFabric(t, 2_000_000)
	for i := 0; i < 500_000; i++ {
		if !eng.Step() {
			t.Fatal("simulation drained during warmup")
		}
	}
	poolAllocs := nw.Stats().PoolAllocs
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 50_000; i++ {
			if !eng.Step() {
				t.Fatal("simulation drained mid-measurement")
			}
		}
	})
	if d := nw.Stats().PoolAllocs - poolAllocs; d != 0 {
		t.Fatalf("steady state allocated %d fresh packets, want 0", d)
	}
	if allocs > 50 {
		t.Fatalf("steady-state stepping allocates %.1f objects per 50k events, want ~0", allocs)
	}
}
