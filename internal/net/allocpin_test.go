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

// TestFatTreeRunIsAllocationFlat is TestSteadyStateStepDoesNotAllocate on
// the event-time distribution of the recorded figures: an 8-host fat-tree
// under 0.2 ms of Hadoop traffic at 50% load (fig10 at its smallest). The
// fixed-window fabric of that test keeps every ladder bucket warm, which
// is how bucket storage that allocated 76 B per event on the 320-host
// fabric passed it. Here, once the first 20 000 events have warmed pools
// and queues, the rest of the run — arrivals, flow completions, the drain
// of the long flows — must allocate under 2 B per event (slice-per-bucket
// storage took 4 B on this run), and the scheduler's node arena must not
// outgrow the peak number of pending events.
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
	// The arena is internal to the scheduler and has no counter of its own;
	// a renamed field panics here rather than passing silently.
	arena := func() int {
		return reflect.ValueOf(eng).Elem().FieldByName("q").FieldByName("nodes").Len()
	}

	for i := 0; i < 20_000; i++ {
		if !eng.Step() {
			t.Fatal("simulation drained during warmup")
		}
	}
	warm, warmArena := eng.Stats(), arena()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for !nw.AllFinished() && eng.Step() {
	}
	runtime.ReadMemStats(&after)
	if !nw.AllFinished() {
		t.Fatal("flows did not finish")
	}

	end := eng.Stats()
	events := end.Steps - warm.Steps
	if events < 100_000 || warm.PeakPending < 100 {
		t.Fatalf("run too small to pin anything: %d events after warmup, %d pending at most", events, warm.PeakPending)
	}
	if perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(events); perEvent >= 2 {
		t.Fatalf("run phase allocated %.2f B per event over %d events, want < 2", perEvent, events)
	}
	if grew, peakGrew := arena()-warmArena, end.PeakPending-warm.PeakPending; grew > peakGrew {
		t.Fatalf("node arena grew by %d (to %d) while peak pending grew by %d (to %d)",
			grew, arena(), peakGrew, end.PeakPending)
	}
}
