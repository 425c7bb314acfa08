package exp

import (
	"strings"
	"testing"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// runToCSV runs one experiment and returns its CSV bytes.
func runToCSV(t *testing.T, name string, cfg Config) string {
	t.Helper()
	res, err := Run(name, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runParallel builds a network with build, which must cut it into the
// given number of shards, and drives it through the parallel engine with
// the checks simulate applies to a sequential run: every flow finishes and
// conservation holds. It returns the network, its counters with the engine
// counts summed over the shards, and the number of epochs.
func runParallel(t *testing.T, seed int64, shards int, build func(*net.Network)) (*net.Network, metrics.RunStats, uint64) {
	t.Helper()
	nw := net.New(sim.NewEngine(), seed)
	build(nw)
	if got := nw.Shards(); got != shards {
		t.Fatalf("build cut the network into %d shards, want %d", got, shards)
	}
	pr := nw.NewParallel()
	if err := pr.Run(); err != nil {
		t.Fatal(err)
	}
	if !nw.AllFinished() {
		st := nw.Stats()
		t.Fatalf("shards=%d: %d of %d flows did not finish", shards, st.FlowsTotal-st.FlowsFinished, st.FlowsTotal)
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	st := metrics.RunStats{Counters: nw.Stats().Counters}
	for _, eng := range nw.ShardEngines() {
		es := eng.Stats()
		st.Events += es.Steps
		st.EventsScheduled += es.Scheduled
		st.EventsLaned += es.Laned
	}
	return nw, st, pr.Epochs()
}

// runAtShards runs build at seed 1: through simulate when it leaves the
// network whole (shards 1), through runParallel when it cuts it into
// shards. It returns the network and its RunStats.
func runAtShards(t *testing.T, label string, shards int, build func(*net.Network)) (*net.Network, metrics.RunStats) {
	t.Helper()
	if shards > 1 {
		nw, st, _ := runParallel(t, 1, shards, build)
		return nw, st
	}
	cfg := Config{Seed: 1, obs: &runObserver{}}
	nw, err := simulate(cfg, label, build)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return nw, cfg.obs.finish(0)
}

// shardedFatTree is a build for runParallel: the fat-tree cut by ShardMap
// into shards, then the traffic's flows under v.
func shardedFatTree(ftCfg topo.FatTreeConfig, shards int, traffic func() *workload.Arrivals, v variant) func(*net.Network) {
	return func(nw *net.Network) {
		ft := topo.NewFatTree(nw, ftCfg)
		nw.Shard(ft.ShardMap(shards))
		src := traffic()
		for spec, ok := src.Next(); ok; spec, ok = src.Next() {
			nw.AddFlow(spec, v.make())
		}
	}
}

// TestShardDifferential cross-checks the parallel engine against the
// sequential one on a randomized multihop workload (Poisson Hadoop
// traffic on a 4-pod, 4-Agg fat-tree, 32 hosts at scale small, cut into 4
// shards). The two runs are not bit-identical — sharding re-partitions
// PRNG streams and boundary tie order — but every conservation invariant
// must agree exactly: each data packet is sent once, delivered once, and
// acknowledged, with nothing dropped, and every flow finishes.
func TestShardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale, cfg.DCPods, cfg.DCToRs = "small", 4, 4
	p, err := planDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := dcTraffic(cfg, p.ftCfg, p.duration, p.workload, p.load)
	if err != nil {
		t.Fatal(err)
	}
	v := p.vs[1]
	_, seq, err := runDC(cfg, v, p.ftCfg, traffic)
	if err != nil {
		t.Fatal(err)
	}
	par, _, epochs := runParallel(t, cfg.Seed, 4, shardedFatTree(p.ftCfg, 4, traffic, v))
	if epochs == 0 {
		t.Fatal("parallel run completed without epochs")
	}
	checkConservationPair(t, seq, par.Stats())
}

// checkConservationPair requires two runs of the same workload to agree
// on every conservation invariant exactly, and both to be lossless.
func checkConservationPair(t *testing.T, seq, par net.NetworkStats) {
	t.Helper()
	if seq.Drops() != 0 || par.Drops() != 0 || seq.Retransmits != 0 || par.Retransmits != 0 {
		t.Fatalf("lossless runs recorded losses: seq drops=%d rtx=%d, par drops=%d rtx=%d",
			seq.Drops(), seq.Retransmits, par.Drops(), par.Retransmits)
	}
	type inv struct {
		flows                                                        int
		dataSent, dataDelivered, acksSent, payloadSent, payloadAcked int64
	}
	invOf := func(s net.NetworkStats) inv {
		return inv{s.FlowsFinished, s.DataSent, s.DataDelivered, s.AcksSent, s.PayloadSent, s.PayloadAcked}
	}
	if a, b := invOf(seq), invOf(par); a != b {
		t.Fatalf("conservation invariants differ:\nsequential %+v\nparallel   %+v", a, b)
	}
	if seq.DataSent != seq.DataDelivered {
		t.Fatalf("lossless run lost packets: sent %d, delivered %d", seq.DataSent, seq.DataDelivered)
	}
}
