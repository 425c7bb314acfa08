package exp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/topo"
)

// Golden regression values for the seed-1 16-1 incast. The simulator is
// fully deterministic, so these are exact; any diff means behaviour
// changed. Update them deliberately (with a re-derivation of
// EXPERIMENTS.md) when a change is intentional.
func TestGoldenIncastSeed1(t *testing.T) {
	want := []struct {
		label      string
		convergeUs float64
		maxQueueKB float64
		lastFinish float64
	}{
		{"HPCC", 885.3504, 105.848, 1496.449679},
		{"HPCC VAI SF", 228.0448, 148.816, 1466.442077},
		{"Swift", 831.6928, 237.896, 1426.39424},
		{"Swift VAI SF", 254.8736, 216.936, 1424.3008},
	}
	p := starParams(starMinBDP(16), hostRate)
	variants := []variant{
		hpccBaselines()[0], hpccVAISF(p),
		swiftBaselines(p)[0], swiftVAISF(p),
	}
	// The incast experiment at the same shape must be the same run, not a
	// similar one: its Result carries the same three numbers.
	keys := []string{"hpcc", "hpcc-vaisf", "swift", "swift-vaisf"}
	for i, v := range variants {
		out, err := runIncast(Config{Seed: 1}, v, paperIncast(16), nil)
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		res, err := Run("incast", Config{Seed: 1, IncastAlgo: keys[i], IncastSenders: 16, IncastFlowBytes: 1_000_000})
		if err != nil {
			t.Fatalf("incast -algo %s: %v", keys[i], err)
		}
		var post Series // the Jain series from the last join on, as runIncast cuts it
		for j, x := range res.Series[0].X {
			if x >= paperIncast(16).lastStart().Microseconds() {
				post.Add(x, res.Series[0].Y[j])
			}
		}
		w := want[i]
		if v.label != w.label {
			t.Fatalf("variant order changed: %s vs %s", v.label, w.label)
		}
		for _, got := range []struct {
			path                   string
			converge, maxQ, finish float64
		}{
			{"runIncast", out.convergeUs, out.maxQueueKB, slices.Max(out.startFinish.Y)},
			{"incast experiment", smoothedReach(post, 5, 0.9), slices.Max(res.Series[1].Y), slices.Max(res.Series[2].Y)},
		} {
			if math.Abs(got.converge-w.convergeUs) > 1e-6 ||
				math.Abs(got.maxQ-w.maxQueueKB) > 1e-6 ||
				math.Abs(got.finish-w.lastFinish) > 1e-6 {
				t.Errorf("%s via %s: got (converge=%v, maxQ=%v, last=%v), golden (%v, %v, %v)",
					v.label, got.path, got.converge, got.maxQ, got.finish,
					w.convergeUs, w.maxQueueKB, w.lastFinish)
			}
		}
	}
}

// finishedAtHash is the FNV-64a hash of every (flow ID, finish time) in
// flow-ID order: one number that moves if any flow finishes a picosecond
// earlier or later. It sorts records in place.
func finishedAtHash(records []metrics.FlowRecord) uint64 {
	sort.Slice(records, func(a, b int) bool { return records[a].ID < records[b].ID })
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range records {
		binary.LittleEndian.PutUint64(buf[:8], uint64(r.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Start+r.FCT))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Golden regression values for the seed-1 fat-tree run: fig10's Hadoop
// traffic at scale "small" under the four datacenter variants. Event
// counts pin the engine's schedule exactly (one extra, missing or fused
// event moves them); the hash covers every flow's finish time in flow-ID
// order. Update them deliberately, as for TestGoldenIncastSeed1.
func TestGoldenFatTreeSeed1(t *testing.T) {
	want := []struct {
		label              string
		events, scheduled  uint64
		dataSent, acksSent int64
		finishedAtHash     uint64
	}{
		{"HPCC", 1334850, 1334873, 63980, 63980, 0xf929698bf3caaf76},
		{"HPCC VAI SF", 1335749, 1335755, 63980, 63980, 0x27b40a049c9cbc5d},
		{"Swift", 1300649, 1300756, 63980, 63980, 0x8740b9afe83d21c3},
		{"Swift VAI SF", 1303541, 1304077, 63980, 63980, 0x7b5ce3ba3be42ae9},
	}
	cfg := Config{Seed: 1, Scale: "small"}
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := dcTraffic(cfg, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	check := func(v variant, ftCfg topo.FatTreeConfig, specs []net.FlowSpec) {
		t.Helper()
		i := 0
		for i < len(want) && want[i].label != v.label {
			i++
		}
		if i == len(want) {
			t.Fatalf("no golden for variant %q", v.label)
		}
		w := want[i]
		run := cfg
		run.obs = &runObserver{}
		records, _, err := runDC(run, v, ftCfg, specs)
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		st := run.obs.finish(0)
		h := finishedAtHash(records)
		if st.Events != w.events || st.EventsScheduled != w.scheduled ||
			st.DataSent != w.dataSent || st.AcksSent != w.acksSent || h != w.finishedAtHash {
			t.Errorf("%s: got (events=%d, scheduled=%d, data=%d, acks=%d, finishedAt=%#x), golden (%d, %d, %d, %d, %#x)",
				v.label, st.Events, st.EventsScheduled, st.DataSent, st.AcksSent, h,
				w.events, w.scheduled, w.dataSent, w.acksSent, w.finishedAtHash)
		}
	}
	for i, v := range dcVariants(dcParams(dcMinBDP(ftCfg), ftCfg.HostBps)) {
		if v.label != want[i].label {
			t.Fatalf("variant order changed: %s vs %s", v.label, want[i].label)
		}
		check(v, ftCfg, specs)
	}
	// What the dc experiment resolves from the same Config must be the same
	// runs, not similar ones: same fabric, traffic and variant sizing.
	for _, proto := range []string{"hpcc", "swift"} {
		c := cfg
		c.DCWorkload, c.DCProtocol = "hadoop", proto
		p, err := planDC(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range p.vs {
			check(v, p.ftCfg, p.specs)
		}
	}
}
