package exp

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// Golden regression values for the order flow starts run in: 24 HPCC VAI SF
// flows on an 8-host fat-tree, some added out of start order, many sharing
// a picosecond with each other and with the first tick of a sampler chain
// created before, between or after the AddFlow calls. A start and a tick at
// one time run in the order they were set up, so the samplers, which count
// the started flows of their shard, see every tie. Run sequentially and cut
// into two shards. Update them deliberately, as for TestGoldenIncastSeed1.
func TestGoldenStartOrderSeed1(t *testing.T) {
	want := []struct {
		shards             int
		events, scheduled  uint64
		dataSent, acksSent int64
		finishedAtHash     uint64
		points             int
		pointsHash         uint64
	}{
		{1, 44123, 44126, 1920, 1920, 0x6128b8231be4cc67, 22, 0x4c471b39cf7a0c2f},
		{2, 44145, 44151, 1920, 1920, 0x6128b8231be4cc67, 44, 0xa3d1e3307d4d1b67},
	}
	for _, w := range want {
		points := make([][]startPoint, w.shards)
		nw, st := runAtShards(t, "start order", w.shards, startOrderBuild(w.shards, points))
		h := finishedAtHash(metrics.CollectFinished(nw))
		ph, n := startPointsHash(points)
		if st.Events != w.events || st.EventsScheduled != w.scheduled || st.DataSent != w.dataSent ||
			st.AcksSent != w.acksSent || h != w.finishedAtHash || n != w.points || ph != w.pointsHash {
			t.Errorf("shards=%d: got (events=%d, scheduled=%d, data=%d, acks=%d, finishedAt=%#x, points=%d, pointsHash=%#x), golden (%d, %d, %d, %d, %#x, %d, %#x)",
				w.shards, st.Events, st.EventsScheduled, st.DataSent, st.AcksSent, h, n, ph,
				w.events, w.scheduled, w.dataSent, w.acksSent, w.finishedAtHash, w.points, w.pointsHash)
		}
	}
}

// startPoint is one sampler tick: which chain and shard, when, and how many
// of the shard's flows had started and how many bytes they had acked.
type startPoint struct {
	chain, shard int
	at           sim.Time
	started      int
	acked        int64
}

// startPointsHash is the FNV-64a hash of every point, shard by shard, and
// their number.
func startPointsHash(points [][]startPoint) (uint64, int) {
	h := fnv.New64a()
	var buf [40]byte
	n := 0
	for _, p := range slices.Concat(points...) {
		n++
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.chain))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.shard))
		binary.LittleEndian.PutUint64(buf[16:], uint64(p.at))
		binary.LittleEndian.PutUint64(buf[24:], uint64(p.started))
		binary.LittleEndian.PutUint64(buf[32:], uint64(p.acked))
		h.Write(buf[:])
	}
	return h.Sum64(), n
}

// startOrderBuild is the golden's set-up: the fat-tree, cut into shards
// when shards > 1; sampler chain 0; flows 0 to 11; chain 1; the rest;
// chain 2. The chains tick every 20 us from 20, 80 and 60 us,
// on every shard's engine, and append to that shard's points.
func startOrderBuild(shards int, points [][]startPoint) func(*net.Network) {
	const us = sim.Microsecond
	// Start times in AddFlow order. On one engine, flows 5, 6, 9, 13, 16,
	// 17 and 21 start before a flow added earlier and are out of order;
	// 3, 7, 10, 12, 15 and 20 tie the latest start added before them.
	// Flows 11, 12 and 16 start on chain 1's first tick, 11 added before
	// the chain and 12 and 16 after it.
	starts := []sim.Time{0, 10 * us, 20 * us, 20 * us, 40 * us, 15 * us, 20 * us, 40 * us, 60 * us, 40 * us, 60 * us, 80 * us,
		80 * us, 60 * us, 100 * us, 100 * us, 80 * us, 20 * us, 120 * us, 140 * us, 140 * us, 100 * us, 160 * us, 180 * us}
	return func(nw *net.Network) {
		ftCfg := topo.DefaultFatTree().Scaled(2, 2, 2)
		ft := topo.NewFatTree(nw, ftCfg)
		shardOf := make([]int, len(ft.Hosts)+len(ft.ToRs)+len(ft.Aggs)+len(ft.Spines))
		if shards > 1 {
			var k int
			shardOf, k = ft.ShardMap(shards)
			nw.Shard(shardOf, k)
		}
		v := hpccVAISF(dcParams(ftCfg))
		var flows []*net.Flow
		sampler := func(chain int) {
			for s, eng := range nw.ShardEngines() {
				eng.Every([]sim.Time{20 * us, 80 * us, 60 * us}[chain], 20*us, 2*sim.Millisecond, func() {
					p := startPoint{chain: chain, shard: s, at: eng.Now()}
					for _, f := range flows {
						if shardOf[f.Spec.Src] == s && f.Started() {
							p.started++
							p.acked += f.Acked()
						}
					}
					points[s] = append(points[s], p)
				})
			}
		}
		sampler(0)
		for i, at := range starts {
			if i == 12 {
				sampler(1)
			}
			src := i % len(ft.Hosts)
			dst := (src + len(ft.Hosts)/2 + i/len(ft.Hosts)) % len(ft.Hosts)
			size := int64(20_000)
			if i%3 == 0 {
				size = 200_000
			}
			flows = append(flows, nw.AddFlow(net.FlowSpec{ID: i, Src: ft.Hosts[src].NodeID(),
				Dst: ft.Hosts[dst].NodeID(), Size: size, Start: at}, v.make()))
		}
		sampler(2)
	}
}
