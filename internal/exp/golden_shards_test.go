package exp

import (
	"testing"

	"faircc/internal/metrics"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// Golden regression values for the sharded engine: HPCC VAI SF on a 4-pod,
// 4-Agg fat-tree (32 hosts, 1 ms of Hadoop at 50% load, seed 1) at 2 and 4
// shards, through runParallel. A sharded run is exact at a fixed shard
// count, so these pin the partition, every epoch horizon (Epochs) and the
// cross-shard tie order (the event counts and the finish-time hash).
// Update them deliberately, as for TestGoldenIncastSeed1.
func TestGoldenFatTreeShardsSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	want := []struct {
		shards             int
		events, scheduled  uint64
		epochs             uint64
		dataSent, acksSent int64
		finishedAtHash     uint64
	}{
		{2, 4279315, 4279315, 2474, 188486, 188486, 0x7a79283e00982f9b},
		{4, 4279316, 4279316, 2476, 188486, 188486, 0x5db74aa406334056},
	}
	ftCfg := topo.DefaultFatTree().Scaled(4, 4, 2)
	cfg := Config{Seed: 1}
	traffic, err := dcTraffic(cfg, ftCfg, 1*sim.Millisecond, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	v := hpccVAISF(dcParams(ftCfg))
	for _, w := range want {
		nw, st, epochs := runParallel(t, cfg.Seed, w.shards, shardedFatTree(ftCfg, w.shards, traffic, v))
		if st.Events != st.EventsScheduled {
			t.Errorf("shards=%d: %d of %d scheduled events ran; every scheduled event runs", w.shards, st.Events, st.EventsScheduled)
		}
		h := finishedAtHash(metrics.CollectFinished(nw))
		if st.Events != w.events || st.EventsScheduled != w.scheduled || epochs != w.epochs ||
			st.DataSent != w.dataSent || st.AcksSent != w.acksSent || h != w.finishedAtHash {
			t.Errorf("shards=%d: got (events=%d, scheduled=%d, epochs=%d, data=%d, acks=%d, finishedAt=%#x), golden (%d, %d, %d, %d, %d, %#x)",
				w.shards, st.Events, st.EventsScheduled, epochs, st.DataSent, st.AcksSent, h,
				w.events, w.scheduled, w.epochs, w.dataSent, w.acksSent, w.finishedAtHash)
		}
	}
}
