package exp

import (
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

// fourPods is the dc experiment on a 4-pod, 4-Agg fat-tree (32 hosts at
// scale small): the smallest fabric ShardMap cuts into 4 shards.
func fourPods(shards int) Config {
	cfg := DefaultConfig()
	cfg.Scale, cfg.DCPods, cfg.DCToRs, cfg.Shards = "small", 4, 4, shards
	return cfg
}

// TestParallelShardsCSVDeterminism is the fixed-shard-count half of the
// determinism contract, end to end: the same seed and -shards value must
// produce byte-identical experiment CSVs on every repetition, regardless
// of worker goroutine scheduling.
func TestParallelShardsCSVDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	cfg := fourPods(4)
	if a, b := runToCSV(t, "dc", cfg), runToCSV(t, "dc", cfg); a != b {
		t.Fatal("same seed, -shards 4: CSVs differ between repetitions")
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
// traffic on the 4-pod fat-tree, cut into 4 shards). The two runs are not
// bit-identical — sharding re-partitions PRNG streams and boundary tie
// order — but every conservation invariant must agree exactly: each data
// packet is sent once, delivered once, and acknowledged, with nothing
// dropped, and every flow finishes.
func TestShardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter runs in -short mode")
	}
	cfg := fourPods(0)
	p, err := planDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := dcTraffic(cfg, p.ftCfg, p.duration, p.workload, p.load)
	if err != nil {
		t.Fatal(err)
	}
	ftCfg, v := p.ftCfg, p.vs[1]

	run := func(shards int) net.NetworkStats {
		t.Helper()
		eng := sim.NewEngine()
		nw := net.New(eng, cfg.Seed)
		ft := topo.NewFatTree(nw, ftCfg)
		if shards > 1 {
			assign, k := ft.ShardMap(shards)
			nw.Shard(assign, k)
		}
		src := traffic()
		for spec, ok := src.Next(); ok; spec, ok = src.Next() {
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
	par := run(4)
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
