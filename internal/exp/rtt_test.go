package exp

import (
	"strings"
	"testing"

	"faircc/internal/metrics"
	"faircc/internal/sim"
	"faircc/internal/stats"
)

// TestRTTUnfairnessRuns: both scenarios run end-to-end at small scale and
// report what the family promises — aggregate plus per-class Jain series
// per variant, per-class FCT percentile notes, and the peak-retention
// gauge from the streaming collector.
func TestRTTUnfairnessRuns(t *testing.T) {
	for _, name := range []string{"rtt-unfairness", "rtt-unfairness-wan"} {
		res, rs, err := RunWithStats(name, Config{Seed: 1, Scale: "small"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// 4 variants x (all + fast + slow).
		if len(res.Series) != 12 {
			t.Fatalf("%s: %d series, want 12", name, len(res.Series))
		}
		for _, suffix := range []string{"", " fast", " slow"} {
			for _, v := range []string{"HPCC", "HPCC VAI SF", "Swift", "Swift VAI SF"} {
				found := false
				for _, s := range res.Series {
					if s.Label == v+suffix {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: missing series %q", name, v+suffix)
				}
			}
		}
		wantNotes := []string{"base RTT", "FCT p50", "slowdown p50", "steady-state Jain", "peak retained"}
		for _, frag := range wantNotes {
			found := false
			for _, n := range res.Notes {
				if strings.Contains(n, frag) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no note mentioning %q", name, frag)
			}
		}
		if rs.PeakFCTRecords == 0 {
			t.Errorf("%s: PeakFCTRecords gauge not recorded", name)
		}
	}
}

// TestRTTUnfairnessDeterministic: same seed, same CSV.
func TestRTTUnfairnessDeterministic(t *testing.T) {
	cfg := Config{Seed: 3, Scale: "small"}
	if a, b := runToCSV(t, "rtt-unfairness", cfg), runToCSV(t, "rtt-unfairness", cfg); a != b {
		t.Fatal("same seed: rtt-unfairness CSVs differ between repetitions")
	}
}

// TestRTTKnobsApply: the Config overrides reach the topology.
func TestRTTKnobsApply(t *testing.T) {
	s, err := rttScale(Config{Scale: "small",
		RTTSlowDelay: 100 * sim.Microsecond, RTTSenders: 2})
	if err != nil {
		t.Fatal(err)
	}
	last := len(s.dc.Groups) - 1
	if s.dc.Groups[last].AccessDelay != 100*sim.Microsecond {
		t.Fatalf("slow delay = %v, want 100us", s.dc.Groups[last].AccessDelay)
	}
	for i, g := range s.dc.Groups {
		if g.Count != 2 {
			t.Fatalf("group %d count = %d, want 2", i, g.Count)
		}
	}
	if _, err := rttScale(Config{Scale: "nope"}); err == nil {
		t.Fatal("unknown scale must error")
	}
}

// TestStreamedPercentilesMatchRetainedOnGoldenRuns feeds the exact
// per-flow records of the golden runs — the seed-1 16-1 incast behind
// fig9 and the seed-1 small-scale fat-tree run behind fig10 — through the
// streaming accumulator and requires its percentiles to equal the
// retained-slice path bit-for-bit. This is the contract that lets the
// streaming collector replace record retention without moving any figure.
func TestStreamedPercentilesMatchRetainedOnGoldenRuns(t *testing.T) {
	cfg := Config{Seed: 1, Scale: "small"}

	var cases []struct {
		name string
		recs []metrics.FlowRecord
	}

	// fig9's scenario: the 16-1 incast (startFinish figure source).
	p := starParams(starMinBDP(16), hostRate)
	out, err := runIncast(cfg, hpccVAISF(p), paperIncast(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name string
		recs []metrics.FlowRecord
	}{"fig9-incast", out.records})

	// fig10's scenario: Hadoop traffic on the scaled fat-tree.
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := dcTraffic(cfg, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	dp := dcParams(dcMinBDP(ftCfg), ftCfg.HostBps)
	recs, _, err := runDC(cfg, dcVariants(dp)[1], ftCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name string
		recs []metrics.FlowRecord
	}{"fig10-dc", recs})

	for _, c := range cases {
		if len(c.recs) == 0 {
			t.Fatalf("%s: no records", c.name)
		}
		var acc metrics.Accumulator
		retained := make([]float64, 0, len(c.recs))
		for _, r := range c.recs {
			acc.Add(r.Slowdown)
			retained = append(retained, r.Slowdown)
		}
		for _, pct := range []float64{50, 90, 99, 99.9} {
			want := stats.Percentile(retained, pct)
			if got := acc.Percentile(pct); got != want {
				t.Errorf("%s p%v: streamed %v != retained %v (bit-for-bit contract)",
					c.name, pct, got, want)
			}
		}
	}
}
