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

// Golden regression values for a dumbbell whose sender groups each have
// their own access rate: seven rates from 10 to 400 Gb/s, so full data
// packets and ACKs have fourteen distinct serialization times on the
// sender side, on top of two propagation delays — more constant delays
// than an engine keeps lanes for. Propagation claims its lanes when the
// links are connected; the serialization delays met first take what is
// left and the rest fall back to the heap, and every flow ends in one
// odd-sized packet that never claims a lane. With Shards=2 the receiver
// side runs on a second engine with four delays of its own. Recorded on
// the commit before serialization used lanes; the engine must reproduce
// that order exactly. Update them deliberately, as for TestGoldenIncastSeed1.
func TestGoldenManyRatesSeed1(t *testing.T) {
	want := []struct {
		label              string
		shards             int
		events, scheduled  uint64
		dataSent, acksSent int64
		finishedAtHash     uint64
	}{
		{"HPCC", 1, 108996, 108996, 8442, 8442, 0xafe51baf26e6277e},
		{"HPCC", 2, 108996, 108996, 8442, 8442, 0xafe51baf26e6277e},
		{"Swift VAI SF", 1, 106140, 106140, 8442, 8442, 0xd2466ffb286065b8},
		{"Swift VAI SF", 2, 106140, 106140, 8442, 8442, 0xd2466ffb286065b8},
	}
	dc := topo.DumbbellConfig{
		BottleneckBps: 100e9, BottleneckDelay: 2 * sim.Microsecond,
		ReceiverBps: 100e9, ReceiverDelay: sim.Microsecond,
	}
	for _, gbps := range []float64{10, 25, 40, 50, 100, 200, 400} {
		dc.Groups = append(dc.Groups, topo.SenderGroup{Count: 2, AccessBps: gbps * 1e9, AccessDelay: sim.Microsecond})
	}
	build := func(nw *net.Network, shards int, v variant) {
		d := topo.NewDumbbell(nw, dc)
		if shards > 1 { // the receiver side on shard 1: the bottleneck is the one cross-shard link
			assign := make([]int, len(d.Senders)+len(d.Receivers)+2)
			for _, r := range d.Receivers {
				assign[r.NodeID()] = 1
			}
			assign[d.Right.NodeID()] = 1
			nw.Shard(assign, shards)
		}
		n := len(d.Senders)
		for round := 0; round < 3; round++ {
			for i, s := range d.Senders {
				nw.AddFlow(net.FlowSpec{
					ID:    round*n + i + 1,
					Src:   s.NodeID(),
					Dst:   d.Receivers[(i+round)%n].NodeID(),
					Size:  200_300,
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
		// Sequentially all three arrivals per packet are laned (two
		// propagation delays), cut in two one of them crosses shards; of
		// the three serialization ends some found a ring and some did not.
		pkts := uint64(st.DataSent + st.AcksSent)
		arrivals := 3 * pkts
		if w.shards == 2 {
			arrivals = 2 * pkts
		}
		if st.EventsLaned <= arrivals || st.EventsLaned >= arrivals+3*pkts {
			t.Errorf("%s shards=%d: %d events laned, of them %d arrivals; with 16 constant delays some of the three serialization ends per packet must be laned and some not",
				w.label, w.shards, st.EventsLaned, arrivals)
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
