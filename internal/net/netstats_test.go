package net

import (
	"testing"

	"faircc/internal/cc"
)

func TestNetworkStats(t *testing.T) {
	eng, nw, _ := star(t, 3, 1)
	a1 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	a2 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 100_000}, a1)
	nw.AddFlow(FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 100_000}, a2)

	st := nw.Stats()
	if st.FlowsTotal != 2 || st.FlowsFinished != 0 {
		t.Fatalf("initial stats wrong: %+v", st)
	}

	eng.Run()
	st = nw.Stats()
	if st.FlowsFinished != 2 {
		t.Fatalf("final flow counts wrong: %+v", st)
	}
	if st.PayloadSent != 200_000 || st.PayloadAcked != 200_000 {
		t.Fatalf("payload accounting wrong: %+v", st)
	}
	// The switch transmitted all data (plus headers) toward host 0 and
	// all ACKs back: more than the payload, less than 2x.
	wire := int64(200_000 + 200*48)
	if st.FabricTxBytes < wire || st.FabricTxBytes > wire+100*200 {
		t.Fatalf("fabric tx = %d, want wire data %d plus ACKs", st.FabricTxBytes, wire)
	}
	// Two line-rate senders into one port must have left a queue peak.
	if st.MaxQueuePeak < 50_000 {
		t.Fatalf("max queue peak = %d, want a substantial incast peak", st.MaxQueuePeak)
	}
}

// The run-level packet counters: every data packet a finished run sent was
// delivered and acknowledged, and the packet pool actually recycles.
func TestPacketCounters(t *testing.T) {
	eng, nw, _ := star(t, 3, 1)
	a1 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	a2 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 100_000}, a1)
	nw.AddFlow(FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 100_000}, a2)
	eng.Run()

	st := nw.Stats()
	if st.DataSent == 0 {
		t.Fatal("no data packets counted")
	}
	// Lossless fabric, fully drained: every data packet arrived and was
	// acked one-for-one.
	if st.DataDelivered != st.DataSent {
		t.Fatalf("delivered %d != sent %d on a drained lossless run", st.DataDelivered, st.DataSent)
	}
	if st.AcksSent != st.DataDelivered {
		t.Fatalf("acks %d != deliveries %d", st.AcksSent, st.DataDelivered)
	}
	if st.PoolGets < st.DataSent {
		t.Fatalf("pool gets %d < data packets %d; sends bypassed the pool", st.PoolGets, st.DataSent)
	}
	// 200 KB in 1000-byte packets cycles far more packets than can be live
	// at once, so the pool must have reused some.
	if st.PoolAllocs <= 0 || st.PoolAllocs >= st.PoolGets {
		t.Fatalf("pool allocs %d of %d gets, want some gets served by reuse", st.PoolAllocs, st.PoolGets)
	}
}
