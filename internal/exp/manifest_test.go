package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
)

func TestManifestRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = "small"
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	res, stats, err := RunWithStats("fig1a", cfg)
	if err != nil {
		t.Fatal(err)
	}

	m := BuildManifest("fig1a", cfg, res, stats, start, 1500*time.Millisecond)
	if m.Experiment != "fig1a" || m.Title != res.Title {
		t.Fatalf("identity fields wrong: %+v", m)
	}
	if m.Seed != cfg.Seed || m.Scale != "small" {
		t.Fatalf("config fields wrong: %+v", m)
	}
	if m.GoVersion == "" || m.GOMAXPROCS == 0 {
		t.Fatalf("toolchain fields empty: %+v", m)
	}
	if m.WallSeconds != 1.5 || !m.StartedAt.Equal(start) {
		t.Fatalf("timing fields wrong: %+v", m)
	}

	dir := t.TempDir()
	path, err := WriteManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Experiment != "fig1a" || back.Stats == nil {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Stats.Events != stats.Events || back.Stats.Runs != stats.Runs {
		t.Fatalf("RunStats round trip: got %+v, want %+v", back.Stats, stats)
	}

	// The JSON schema documented in EXPERIMENTS.md: spot-check stable keys.
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"experiment", "seed", "go_version", "started_at", "run_stats"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest JSON missing key %q", k)
		}
	}
	// The result-changing knobs round-trip when set and are absent at
	// their defaults (so committed default-config manifests are unchanged).
	knobKeys := []string{"dc_workload", "dc_protocol", "dc_pods", "dc_tors", "dc_hosts_per_tor",
		"dc_duration_ps", "dc_load", "incast_algo", "incast_senders", "incast_flow_bytes",
		"incast_group", "incast_every_ps"}
	for _, k := range knobKeys {
		if _, ok := keys[k]; ok {
			t.Errorf("default-config manifest carries key %q", k)
		}
	}
	knobs := cfg
	knobs.DCWorkload, knobs.DCProtocol = "mix", "swift"
	knobs.DCPods, knobs.DCToRs, knobs.DCHostsPerToR = 1, 2, 4
	knobs.DCDuration, knobs.DCLoad = 2*sim.Millisecond, 0.3
	knobs.IncastAlgo, knobs.IncastSenders, knobs.IncastFlowBytes = "swift-vaisf", 8, 500_000
	knobs.IncastGroup, knobs.IncastEvery = 4, 10*sim.Microsecond
	var buf bytes.Buffer
	if err := BuildManifest("fig1a", knobs, nil, nil, start, 0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var kb Manifest
	if err := json.Unmarshal(buf.Bytes(), &kb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kb.Config, knobs) {
		t.Errorf("knob round trip: got %+v, want the knobs of %+v", kb.Config, knobs)
	}
	for _, k := range knobKeys {
		if !bytes.Contains(buf.Bytes(), []byte(`"`+k+`"`)) {
			t.Errorf("manifest with knobs set lacks key %q", k)
		}
	}

	rs, ok := keys["run_stats"].(map[string]any)
	if !ok {
		t.Fatal("run_stats is not an object")
	}
	for _, k := range []string{"runs", "events", "events_laned", "lanes", "events_per_sec", "data_pkts_sent", "pool_reuse_rate", "flow_runs"} {
		if _, ok := rs[k]; !ok {
			t.Errorf("run_stats JSON missing key %q", k)
		}
	}
}

func TestRunStatsMetricsInvariants(t *testing.T) {
	var s metrics.RunStats
	pool := net.Counters{PoolGets: 100, PoolAllocs: 25}
	s.Add(metrics.RunStats{Runs: 1, Events: 100, EventsLaned: 40, PeakPending: 10, Counters: pool,
		Lanes: []sim.LaneStats{{Delay: 1000, Events: 30}, {Delay: 5, Events: 10}}})
	s.Add(metrics.RunStats{Runs: 1, Events: 50, EventsLaned: 20, PeakPending: 40, Counters: pool,
		Lanes: []sim.LaneStats{{Delay: 84, Events: 4}, {Delay: 1000, Events: 16}}})
	if s.Runs != 2 || s.Events != 150 || s.EventsLaned != 60 {
		t.Fatalf("Add summed wrong: %+v", s)
	}
	// One row per delay, ascending, whatever order the engines registered them in.
	if want := []sim.LaneStats{{Delay: 5, Events: 10}, {Delay: 84, Events: 4}, {Delay: 1000, Events: 46}}; !slices.Equal(s.Lanes, want) {
		t.Fatalf("Add merged lanes into %+v, want %+v", s.Lanes, want)
	}
	if s.PeakPending != 40 {
		t.Fatalf("PeakPending = %d, want max 40", s.PeakPending)
	}
	var begin runtime.MemStats
	runtime.ReadMemStats(&begin)
	s.Finish(3*time.Second, &begin)
	if s.EventsPerSec != 50 {
		t.Fatalf("EventsPerSec = %v, want 50", s.EventsPerSec)
	}
	if s.PoolReuseRate != 0.75 {
		t.Fatalf("PoolReuseRate = %v, want 0.75", s.PoolReuseRate)
	}
	if s.PeakHeapBytes == 0 {
		t.Fatal("Finish did not capture process memory")
	}
}

// TestResultsNameRegisteredExperiments: every recorded <name>.csv,
// <name>.notes and <name>.manifest.json under results/ and results/full/
// belongs to a registered experiment, so an experiment cannot leave the
// registry while its recorded output stays.
func TestResultsNameRegisteredExperiments(t *testing.T) {
	for _, dir := range []string{"results", filepath.Join("results", "full")} {
		var files []string
		for _, pat := range []string{"*.csv", "*.notes", "*.manifest.json"} {
			m, err := filepath.Glob(filepath.Join("..", "..", dir, pat))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, m...)
		}
		if len(files) == 0 {
			t.Fatalf("no recorded results found in %s", dir)
		}
		for _, f := range files {
			name, _, _ := strings.Cut(filepath.Base(f), ".")
			if _, err := Get(name); err != nil {
				t.Errorf("%s: %v", f, err)
			}
		}
	}
}

// TestRecordedManifestsDecode decodes every results/*.manifest.json and
// results/full/*.manifest.json into Manifest and fails on a key it does not
// define, so a recorded manifest cannot keep a counter that no run writes
// any more. The paper-scale manifests in results/full predate the removal of
// the run_stats keys in stale; they are re-recorded only at paper scale
// (ROADMAP item 10), and until then those keys, and only those, are allowed
// there. Each must still be present, so the re-record empties the list.
func TestRecordedManifestsDecode(t *testing.T) {
	gone := []string{"ecn_marks", "event_slot_allocs", "events_cancelled", "pfc_pauses", "queue_shrinks"}
	withFCT := slices.Concat(gone, []string{"peak_fct_records"})
	stale := map[string][]string{
		"fig10.manifest.json": withFCT, "fig11.manifest.json": gone,
		"fig12.manifest.json": withFCT, "fig13.manifest.json": gone,
	}
	var files []string
	for _, dir := range []string{"results", filepath.Join("results", "full")} {
		found, err := filepath.Glob(filepath.Join("..", "..", dir, "*.manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(found) == 0 {
			t.Fatalf("no recorded manifest found in %s/", dir)
		}
		files = append(files, found...)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(filepath.Dir(f)) == "full" {
			raw = dropStaleKeys(t, f, raw, stale[filepath.Base(f)])
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var m Manifest
		if err := dec.Decode(&m); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// dropStaleKeys returns the manifest raw without the run_stats keys in
// keys, failing if one of them is not there.
func dropStaleKeys(t *testing.T, file string, raw []byte, keys []string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if err := json.Unmarshal(m["run_stats"], &stats); err != nil {
		t.Fatalf("%s: run_stats: %v", file, err)
	}
	for _, k := range keys {
		if _, ok := stats[k]; !ok {
			t.Errorf("%s: stale key %q is gone: take it off the list", file, k)
		}
		delete(stats, k)
	}
	var err error
	if m["run_stats"], err = json.Marshal(stats); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRecordedResultsReproduce regenerates, at the recorded -scale medium
// -seed 1, every results/<name>.csv and results/<name>.notes except
// robustness's (the medium fat-tree on four held-out seeds, regenerated
// by hand when a change could move it) and compares bytes, so neither a
// recorded curve nor a recorded headline number can go stale behind a
// behaviour change. Every such file on disk must be compared: one that no
// registered figure writes fails here.
func TestRecordedResultsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the recorded results in -short mode")
	}
	const regen = "go run ./cmd/fairsim -all -scale medium -seed 1 -out results"
	kinds := []struct {
		ext   string
		write func(*Result, io.Writer) error
	}{{".csv", (*Result).WriteCSV}, {".notes", (*Result).WriteNotes}}
	recorded := func(file string) ([]byte, bool) {
		if strings.HasPrefix(file, "robustness.") {
			return nil, false
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", file))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return want, err == nil
	}
	checked := map[string]int{}
	for _, e := range Experiments() {
		var results []*Result // of e's one execution, on its first recorded figure
		for i, f := range e.Figures {
			for _, k := range kinds {
				want, ok := recorded(f.Name + k.ext)
				if !ok {
					continue
				}
				if results == nil {
					var err error
					if results, _, err = e.RunWithStats(DefaultConfig()); err != nil {
						t.Fatal(err)
					}
				}
				var got bytes.Buffer
				if err := k.write(results[i], &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("results/%s%s is not what `fairsim -exp %s -scale medium -seed 1` writes; if the change is meant, regenerate with `%s`",
						f.Name, k.ext, f.Name, regen)
				}
				checked[k.ext]++
			}
		}
	}
	for _, k := range kinds {
		onDisk, err := filepath.Glob(filepath.Join("..", "..", "results", "*"+k.ext))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, f := range onDisk {
			if _, ok := recorded(filepath.Base(f)); ok {
				want++
			}
		}
		if checked[k.ext] != want || want == 0 {
			t.Errorf("compared %d recorded %s files, want the %d in results/ but robustness's", checked[k.ext], k.ext, want)
		}
	}
	if checked[".notes"] != checked[".csv"] {
		t.Errorf("compared %d recorded CSVs but %d notes files; every results/<name>.csv has its <name>.notes beside it",
			checked[".csv"], checked[".notes"])
	}
}
