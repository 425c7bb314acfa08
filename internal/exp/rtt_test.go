package exp

import (
	"strings"
	"testing"
)

// TestRTTUnfairnessRuns: the scenario runs end-to-end at small scale and
// reports what it promises — aggregate plus per-class Jain series
// per variant and per-class FCT percentile notes.
func TestRTTUnfairnessRuns(t *testing.T) {
	const name = "rtt-unfairness"
	res, err := Run(name, Config{Seed: 1, Scale: "small"})
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
	wantNotes := []string{"base RTT", "FCT p50", "slowdown p50", "steady-state Jain"}
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
}

// TestRTTUnfairnessDeterministic: same seed, same CSV.
func TestRTTUnfairnessDeterministic(t *testing.T) {
	cfg := Config{Seed: 3, Scale: "small"}
	if a, b := runToCSV(t, "rtt-unfairness", cfg), runToCSV(t, "rtt-unfairness", cfg); a != b {
		t.Fatal("same seed: rtt-unfairness CSVs differ between repetitions")
	}
}

// TestRTTClassPercentilesPinned pins rtt-unfairness's per-class FCT and
// slowdown percentiles (medium, seed 1) to what the streaming collector
// reported on the commit before per-flow results moved to CollectFinished
// records: the notes carry these numbers and no recorded CSV does.
func TestRTTClassPercentilesPinned(t *testing.T) {
	cfg := Config{Seed: 1, Scale: "medium"}
	s, err := rttScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2][4]float64{ // variant -> {fast, slow} -> FCT us p50, p99, slowdown p50, p99
		"HPCC": {{2412.257987, 2834.490367, 27.72465588095212, 32.5774732414426},
			{1365.399835, 2119.3047410500003, 12.300048384039735, 19.09151457854087}},
		"HPCC VAI SF": {{2417.9423335, 2655.04793395, 27.789987429845272, 30.51509859761805},
			{1771.117815, 2435.5113218, 15.954912443895775, 21.940025427069553}},
		"Swift": {{2325.89952, 2731.6284159999996, 26.73211744066731, 31.395256326797817},
			{971.2268799999999, 1029.6088639999998, 8.749186362601218, 9.275113793928492}},
		"Swift VAI SF": {{1998.12, 2402.1875840000002, 22.964869308088666, 27.608914339515778},
			{7382.552, 7950.918464, 66.50487605902583, 71.62494040052003}},
	}
	for _, v := range dcVariants(rttParams(s.dc)) {
		out, err := runRTT(cfg, v, s)
		if err != nil {
			t.Fatal(err)
		}
		for c, records := range out.records {
			if len(records) != 16 {
				t.Errorf("%s %s: %d flows, want 16", v.label, s.dc.Groups[c].Name, len(records))
			}
			var got [4]float64
			got[0], got[1], got[2], got[3] = fctPercentiles(records)
			if got != want[v.label][c] {
				t.Errorf("%s %s: FCT p50, p99, slowdown p50, p99 = %v, want %v",
					v.label, s.dc.Groups[c].Name, got, want[v.label][c])
			}
		}
	}
}
