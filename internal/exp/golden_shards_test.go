package exp

import (
	"testing"

	"faircc/internal/sim"
	"faircc/internal/topo"
)

// Golden regression values for the sharded engine: HPCC VAI SF on a 4-pod,
// 4-Agg fat-tree (32 hosts, 1 ms of Hadoop at 50% load, seed 1) at 2 and 4
// shards, through simulate. A sharded run is exact at a fixed shard count,
// so these pin the partition, every epoch horizon (Epochs) and the
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
		{2, 4279278, 4279315, 2474, 188486, 188486, 0x7a79283e00982f9b},
		{4, 4279279, 4279316, 2476, 188486, 188486, 0x5db74aa406334056},
	}
	ftCfg := topo.DefaultFatTree().Scaled(4, 4, 2)
	cfg := Config{Seed: 1}
	specs, err := dcTraffic(cfg, ftCfg, 1*sim.Millisecond, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	v := hpccVAISF(dcParams(dcMinBDP(ftCfg), ftCfg.HostBps))
	for _, w := range want {
		run := cfg
		run.Shards = w.shards
		run.obs = &runObserver{}
		records, _, err := runDC(run, v, ftCfg, specs)
		if err != nil {
			t.Fatalf("shards=%d: %v", w.shards, err)
		}
		st := run.obs.finish(0)
		if st.Shards != w.shards {
			t.Fatalf("shards=%d: ran on %d shards", w.shards, st.Shards)
		}
		h := finishedAtHash(records)
		if st.Events != w.events || st.EventsScheduled != w.scheduled || st.Epochs != w.epochs ||
			st.DataSent != w.dataSent || st.AcksSent != w.acksSent || h != w.finishedAtHash {
			t.Errorf("shards=%d: got (events=%d, scheduled=%d, epochs=%d, data=%d, acks=%d, finishedAt=%#x), golden (%d, %d, %d, %d, %d, %#x)",
				w.shards, st.Events, st.EventsScheduled, st.Epochs, st.DataSent, st.AcksSent, h,
				w.events, w.scheduled, w.epochs, w.dataSent, w.acksSent, w.finishedAtHash)
		}
	}
}
