package exp

import (
	"reflect"
	"strings"
	"testing"

	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
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

// TestParallelShardsCSVDeterminism is the fixed-shard-count half of the
// determinism contract, end to end: the same seed and -shards value must
// produce byte-identical experiment CSVs on every repetition, regardless
// of worker goroutine scheduling.
func TestParallelShardsCSVDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	for _, shards := range []int{4, 8} {
		cfg := DefaultConfig()
		cfg.Scale = "small"
		cfg.Shards = shards
		a := runToCSV(t, "fig10", cfg)
		b := runToCSV(t, "fig10", cfg)
		if a != b {
			t.Fatalf("same seed, -shards %d: CSVs differ between repetitions", shards)
		}
	}
}

// TestParallelShardsOneMatchesSequential pins -shards 1 to the sequential
// engine bit-for-bit: shard 0 wraps the same engine with the same seeds,
// so the golden CSVs must not move.
func TestParallelShardsOneMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	seq := DefaultConfig()
	seq.Scale = "small"
	one := seq
	one.Shards = 1
	a := runToCSV(t, "fig10", seq)
	b := runToCSV(t, "fig10", one)
	if a != b {
		t.Fatal("-shards 1 CSV differs from the sequential engine's")
	}
}

// TestShardDifferential cross-checks the parallel engine against the
// sequential one on a randomized multihop workload (Poisson Hadoop
// traffic on the small fat-tree). The two runs are not bit-identical —
// sharding re-partitions PRNG streams and boundary tie order — but every
// conservation invariant must agree exactly: each data packet is sent
// once, delivered once, and acknowledged, with nothing dropped, and every
// flow finishes.
func TestShardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := dcTraffic(cfg, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	v := hpccVAISF(dcParams(dcMinBDP(ftCfg), ftCfg.HostBps))

	run := func(shards int) net.NetworkStats {
		t.Helper()
		eng := sim.NewEngine()
		nw := net.New(eng, cfg.Seed)
		ft := topo.NewFatTree(nw, ftCfg)
		if shards > 1 {
			assign, k := ft.ShardMap(shards)
			nw.Shard(assign, k)
		}
		for _, spec := range specs {
			nw.AddFlow(spec, v.make())
		}
		if nw.Shards() > 1 {
			pr := nw.NewParallel()
			if err := pr.Run(); err != nil {
				t.Fatal(err)
			}
			if pr.Epochs() == 0 {
				t.Fatal("parallel run completed without epochs")
			}
		} else {
			for !nw.AllFinished() && eng.Step() {
			}
		}
		if !nw.AllFinished() {
			t.Fatalf("shards=%d: flows did not finish", shards)
		}
		if err := nw.CheckConservation(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return nw.Stats()
	}

	seq := run(0)
	par := run(3)
	checkConservationPair(t, seq, par)
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

// TestShardPartitionerDifferential pins the partition half of the
// determinism contract across partitioners: the spine-split ShardMap and
// the retained PR-5 ShardMapPodSpine reference each give bit-identical
// per-flow completion times on repeated runs, and the two partitions
// agree on every conservation invariant (they re-split PRNG streams and
// boundary tie order, so completion times may legitimately differ
// *between* partitioners — only *within* one must they be exact).
func TestShardPartitionerDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := dcTraffic(cfg, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	v := hpccVAISF(dcParams(dcMinBDP(ftCfg), ftCfg.HostBps))

	run := func(split func(*topo.FatTree) ([]int, int)) ([]sim.Time, net.NetworkStats) {
		t.Helper()
		eng := sim.NewEngine()
		nw := net.New(eng, cfg.Seed)
		ft := topo.NewFatTree(nw, ftCfg)
		assign, k := split(ft)
		nw.Shard(assign, k)
		flows := make([]*net.Flow, 0, len(specs))
		for _, spec := range specs {
			flows = append(flows, nw.AddFlow(spec, v.make()))
		}
		if err := nw.NewParallel().Run(); err != nil {
			t.Fatal(err)
		}
		if !nw.AllFinished() {
			t.Fatal("flows did not finish")
		}
		if err := nw.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		fcts := make([]sim.Time, len(flows))
		for i, f := range flows {
			fcts[i] = f.FinishedAt
		}
		return fcts, nw.Stats()
	}

	const shards = 4
	splitNew := func(ft *topo.FatTree) ([]int, int) { return ft.ShardMap(shards) }
	splitOld := func(ft *topo.FatTree) ([]int, int) { return ft.ShardMapPodSpine(shards) }

	newA, newStats := run(splitNew)
	newB, _ := run(splitNew)
	if !reflect.DeepEqual(newA, newB) {
		t.Fatal("spine-split partition: per-flow completion times differ between repetitions")
	}
	oldA, oldStats := run(splitOld)
	oldB, _ := run(splitOld)
	if !reflect.DeepEqual(oldA, oldB) {
		t.Fatal("legacy pod-spine partition: per-flow completion times differ between repetitions")
	}
	checkConservationPair(t, newStats, oldStats)
}
