package net

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestAddFlowCarvesOnlySlabs: the handles are the network's one record of
// its flows. Adding 3*flowSlab+1 flows that share one algorithm allocates
// the four slabs the handles are carved from and the list of slabs as it
// grows, nothing per flow; and Flow(i) returns the flows in AddFlow order
// across the slab boundaries.
func TestAddFlowCarvesOnlySlabs(t *testing.T) {
	const flows = 3*flowSlab + 1
	// The slabs, and the doublings of a list that appends one per slab.
	want := uint64(0)
	var list [][]Flow
	for range (flows + flowSlab - 1) / flowSlab {
		if len(list) == cap(list) {
			want++
		}
		list = append(list, nil)
		want++
	}

	// As in TestBytesPerPacket: the collector is off while the loop counts,
	// and the least of three counts is read.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	added := make([]*Flow, 0, flows)
	got := uint64(math.MaxUint64)
	var nw *Network
	for range 3 {
		eng := sim.NewEngine()
		nw = New(eng, 1)
		a, b := nw.AddHost(), nw.AddHost()
		nw.Connect(a, b, gbps100, usec)
		// The engine grows its heap at its first event:
		// warm them, so the count is AddFlow's alone.
		eng.Schedule(0, nopEvent{})
		eng.Step()
		added = added[:0]
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.Mallocs
		for i := range flows {
			added = append(added, nw.AddFlow(FlowSpec{ID: i + 1, Src: a.id, Dst: b.id, Size: 1000, Start: sim.Time(i)}, algo))
		}
		runtime.ReadMemStats(&ms)
		got = min(got, ms.Mallocs-base)
	}
	if got > want {
		t.Errorf("adding %d flows made %d allocations, want at most %d: the slabs and their list", flows, got, want)
	}
	if nw.NumFlows() != flows {
		t.Fatalf("%d flows added, NumFlows %d", flows, nw.NumFlows())
	}
	for i, f := range added {
		if nw.Flow(i) != f {
			t.Fatalf("Flow(%d) is not the %d-th handle AddFlow returned (slab %d, slot %d)", i, i, i/flowSlab, i%flowSlab)
		}
	}
}

// nopEvent is an event that does nothing.
type nopEvent struct{}

func (nopEvent) Fire() {}
