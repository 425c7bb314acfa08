package exp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// Golden regression values for a dumbbell on which every link has its own
// propagation delay: 18 sender access links, 18 receiver access links and
// the bottleneck, 37 distinct delays in all — more than the engine keeps
// delay lanes for, so arrivals take both the lane and the heap path in
// one run, and with Shards=2 the receiver side's ports are rebound to a
// second engine that registers its own. Recorded on the commit before
// delay lanes existed; the engine must reproduce that order exactly. Update
// them deliberately, as for TestGoldenIncastSeed1.
func TestGoldenManyDelaysSeed1(t *testing.T) {
	want := []struct {
		label              string
		shards             int
		events, scheduled  uint64
		dataSent, acksSent int64
		finishedAtHash     uint64
	}{
		{"HPCC", 1, 210131, 210131, 16200, 16200, 0xd9f6caea08d8ed7c},
		{"HPCC", 2, 210131, 210131, 16200, 16200, 0xd9f6caea08d8ed7c},
		{"Swift VAI SF", 1, 202484, 202484, 16200, 16200, 0x394ac4c57dcce076},
		{"Swift VAI SF", 2, 202484, 202484, 16200, 16200, 0x394ac4c57dcce076},
	}
	const pairs = 18
	build := func(nw *net.Network, shards int, v variant) {
		left, right := nw.AddSwitch(), nw.AddSwitch()
		lp, rp := nw.Connect(left, right, 100e9, 2*sim.Microsecond)
		assign := []int{0, 1}
		var senders, receivers []*net.Host
		for i := 0; i < pairs; i++ {
			s, r := nw.AddHost(), nw.AddHost()
			assign = append(assign, 0, 1)
			sp, _ := nw.Connect(left, s, 100e9, sim.Microsecond+sim.Time(i)*130*sim.Nanosecond)
			dp, _ := nw.Connect(right, r, 100e9, 900*sim.Nanosecond+sim.Time(i)*70*sim.Nanosecond)
			left.AddRoute(s.NodeID(), sp)
			right.AddRoute(s.NodeID(), rp)
			right.AddRoute(r.NodeID(), dp)
			left.AddRoute(r.NodeID(), lp)
			senders, receivers = append(senders, s), append(receivers, r)
		}
		if shards > 1 {
			nw.Shard(assign, shards)
		}
		for round := 0; round < 3; round++ {
			for i, s := range senders {
				nw.AddFlow(net.FlowSpec{
					ID:    round*pairs + i + 1,
					Src:   s.NodeID(),
					Dst:   receivers[(i+round)%pairs].NodeID(),
					Size:  300_000,
					Start: sim.Time(round)*40*sim.Microsecond + sim.Time(i)*sim.Microsecond,
				}, v.make())
			}
		}
	}
	p := rttParams(topo.DefaultDumbbell())
	variants := map[string]variant{"HPCC": hpccBaselines()[0], "Swift VAI SF": swiftVAISF(p)}
	for _, w := range want {
		v := variants[w.label]
		nw, st := runAtShards(t, v.label, w.shards, func(nw *net.Network) { build(nw, w.shards, v) })
		if st.Events != st.EventsScheduled {
			t.Errorf("%s shards=%d: %d of %d scheduled events ran; every scheduled event runs",
				w.label, w.shards, st.Events, st.EventsScheduled)
		}
		if st.EventsLaned == 0 || st.EventsLaned >= uint64(3*(st.DataSent+st.AcksSent)) {
			t.Errorf("%s shards=%d: %d events laned; with 37 delays some of the three link arrivals per packet must be laned and some not",
				w.label, w.shards, st.EventsLaned)
		}
		h := fnv.New64a()
		var buf [16]byte
		for _, r := range metrics.CollectFinished(nw) { // in AddFlow order, which is flow-ID order here
			binary.LittleEndian.PutUint64(buf[:8], uint64(r.ID))
			binary.LittleEndian.PutUint64(buf[8:], uint64(r.Start+r.FCT))
			h.Write(buf[:])
		}
		if st.Events != w.events || st.EventsScheduled != w.scheduled ||
			st.DataSent != w.dataSent || st.AcksSent != w.acksSent || h.Sum64() != w.finishedAtHash {
			t.Errorf("%s shards=%d: got (events=%d, scheduled=%d, data=%d, acks=%d, finishedAt=%#x), golden (%d, %d, %d, %d, %#x)",
				w.label, w.shards, st.Events, st.EventsScheduled, st.DataSent, st.AcksSent, h.Sum64(),
				w.events, w.scheduled, w.dataSent, w.acksSent, w.finishedAtHash)
		}
	}
}
