// Command ci is the repository's verification gate, runnable anywhere Go
// is installed (no make required):
//
//	go run ./cmd/ci                                    # build + vet + gofmt + test + race + bench smoke + fuzz smoke
//	go run ./cmd/ci -bench                             # also record BENCH_baseline.json
//	go run ./cmd/ci -bench -bench-out BENCH_pr.json \
//	    -bench-compare BENCH_baseline.json             # record and gate against a baseline
//
// The test step is the repository's tier-1 gate (`go test ./...`), so a
// PR cannot pass ci with a broken unit or experiment test. The race step
// re-runs the whole tree under the race detector in -short mode: -short
// skips only the long datacenter-scale runs, which are single-variant
// re-executions of code the concurrency-heavy packages (internal/par,
// internal/sim) already exercise at full length. A second race step
// re-runs the sharded-engine tests (Parallel|Mailbox|Shard) without
// -short, since those are the tests that actually spin up shard worker
// goroutines. The bench-smoke step
// runs every scheduler benchmark for exactly one iteration, so a
// benchmark that panics or trips its own invariant checks fails the
// default gate without paying measurement time. The fuzz-smoke step
// mutates the scheduler's order-contract corpus for five seconds.
//
// The -bench mode records microbenchmark results plus four timed fig10
// experiment runs — sequential, sharded (-bench-shards, so the
// parallel engine's overhead is a first-class gated number),
// ACK-coalesced (the opt-in receiver-side fast path, so its advantage
// over the per-packet model is itself gated), and macro-event (the
// bit-identical train-fusion mode, gated for the same reason) — as JSON.
// Each timed experiment is run -bench-reps times and the best
// (highest events/sec) repetition is recorded: a timed run is a single
// wall-clock sample, and on a shared machine the minimum wall time is
// the only repetition that measures the code rather than the noise.
// With -bench-compare it then diffs the fresh numbers against a
// committed baseline and exits non-zero when events/sec regresses — or
// allocs/op grows — by more than -bench-threshold. ns/op changes are
// reported but not gated: they swing with machine load, while events/sec
// on the same experiment and allocations per op are the two numbers
// performance PRs commit to. Keys where either side is a single sample
// (experiment Samples <= 1, recorded before best-of-N existed, or a
// benchmark that ran exactly one iteration) are demoted to advisory
// warnings instead of gating: one sample cannot distinguish a regression
// from a scheduling hiccup, and a gate that fails on noise trains people
// to ignore it. The experiment run also records its peak
// retained-FCT-record count and gates growth against the baseline, so a
// change that reverts a streaming collector to unbounded per-flow
// retention fails here even if it is throughput-neutral.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"faircc/internal/exp"
)

func main() {
	var (
		bench     = flag.Bool("bench", false, "run benchmarks + a timed experiment and write a BENCH JSON")
		benchPkg  = flag.String("bench-pkgs", "./internal/sim ./internal/net ./internal/exp", "space-separated packages for -bench")
		benchOut  = flag.String("bench-out", "BENCH_baseline.json", "benchmark JSON output path")
		benchExp  = flag.String("bench-exp", "fig10", "experiment for the timed end-to-end run")
		benchScl  = flag.String("bench-scale", "medium", "scale for the timed experiment run")
		benchSeed = flag.Int64("bench-seed", 1, "seed for the timed experiment run")
		benchReps = flag.Int("bench-reps", 3, "repetitions per timed experiment; the best is recorded")
		benchShd  = flag.Int("bench-shards", 8, "shard count for the sharded timed experiment run (0 disables)")
		compare   = flag.String("bench-compare", "", "baseline JSON to gate the fresh -bench numbers against")
		threshold = flag.Float64("bench-threshold", 0.05, "allowed fractional regression before the gate fails")
	)
	flag.Parse()

	steps := []struct {
		name string
		args []string
	}{
		{"build", []string{"go", "build", "./..."}},
		{"vet", []string{"go", "vet", "./..."}},
		{"gofmt", []string{"gofmt", "-l", "."}},
		{"test", []string{"go", "test", "./..."}},
		{"race", []string{"go", "test", "-race", "-short", "./..."}},
		// The parallel-engine tests are the one place -short would hide real
		// concurrency: cross-shard mailboxes, epoch barriers, and the worker
		// goroutines only run at shards > 1. Re-run them un-shortened under
		// the race detector.
		{"race-parallel", []string{"go", "test", "-race", "-run", "Parallel|Mailbox|Shard",
			"./internal/sim", "./internal/net", "./internal/topo", "./internal/exp"}},
		{"bench-smoke", []string{"go", "test", "-run", "^$", "-bench", ".", "-benchtime", "1x", "./internal/sim", "./internal/net"}},
		// Minimizing each new 9 KB corpus entry (60 s by default) would eat
		// the whole budget; a failing input is kept whole instead.
		{"fuzz-smoke", []string{"go", "test", "-run", "^$", "-fuzz", "FuzzEngineOrder", "-fuzztime", "5s", "-fuzzminimizetime", "0s", "./internal/sim"}},
	}
	failed := 0
	for _, s := range steps {
		fmt.Printf("== %s: %s\n", s.name, strings.Join(s.args, " "))
		out, err := exec.Command(s.args[0], s.args[1:]...).CombinedOutput()
		text := strings.TrimSpace(string(out))
		// gofmt -l exits 0 even when files need formatting; any output is
		// a failure.
		if err != nil || (s.name == "gofmt" && text != "") {
			failed++
			fmt.Printf("FAIL %s\n%s\n", s.name, text)
			if err != nil {
				fmt.Println(err)
			}
			continue
		}
		fmt.Printf("ok   %s\n", s.name)
	}
	if failed > 0 {
		fmt.Printf("\n%d step(s) failed\n", failed)
		os.Exit(1)
	}
	if *bench {
		cur, err := runBench(strings.Fields(*benchPkg), *benchExp, *benchScl, *benchSeed, *benchReps, *benchShd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ci: bench:", err)
			os.Exit(1)
		}
		if err := writeJSON(*benchOut, cur); err != nil {
			fmt.Fprintln(os.Stderr, "ci: bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *benchOut, len(cur.Results))
		if *compare != "" {
			base, err := readBaseline(*compare)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ci: bench-compare:", err)
				os.Exit(1)
			}
			if regressions := compareBaselines(base, cur, *threshold); regressions > 0 {
				fmt.Printf("\n%d benchmark regression(s) beyond %.0f%%\n", regressions, *threshold*100)
				os.Exit(1)
			}
			fmt.Println("bench gate passed")
		}
	}
	fmt.Println("\nall checks passed")
}

// BenchResult is one parsed `go test -bench` line: the benchmark name, its
// iteration count, and every reported metric (ns/op, B/op, allocs/op, and
// any custom ReportMetric units).
type BenchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// ExpBench is a timed end-to-end experiment run: the same events/sec
// figure fairsim -manifest records, captured under bench conditions.
type ExpBench struct {
	Name  string `json:"name"`
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	// Shards is the -shards value of the run (0 or absent: sequential).
	Shards int `json:"shards,omitempty"`
	// AckCoalesce marks a run with receiver-side ACK coalescing enabled;
	// it is part of the key identity (a coalesced run and a per-packet run
	// are different measurements, never compared against each other).
	AckCoalesce bool `json:"ack_coalesce,omitempty"`
	// MacroEvents marks a run with macro-event train fusion enabled. The
	// simulation results are bit-identical to per-packet execution, but the
	// event count and wall clock are not, so it is part of the key identity
	// like the ACK mode.
	MacroEvents bool `json:"macro_events,omitempty"`
	// Samples is how many repetitions the recorded best was taken over.
	// The compare gate only hard-fails on events/sec when both sides
	// have Samples > 1; single-sample keys are advisory.
	Samples         int     `json:"samples,omitempty"`
	Events          uint64  `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	EventSlotAllocs uint64  `json:"event_slot_allocs"`
	// PeakFCTRecords is the largest per-run count of retained FCT records
	// (flow completion samples held in memory at once). It is the memory
	// gauge the streaming collectors exist to bound; a PR that silently
	// reverts an experiment to unbounded retention moves this number.
	PeakFCTRecords int `json:"peak_fct_records"`
}

// BenchBaseline is the BENCH_*.json schema.
type BenchBaseline struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Packages   []string      `json:"packages"`
	Results    []BenchResult `json:"results"`
	Experiment *ExpBench     `json:"experiment,omitempty"`
	// Sharded is the same experiment re-timed through the parallel
	// engine, so parallel-overhead regressions gate like sequential ones.
	Sharded *ExpBench `json:"sharded_experiment,omitempty"`
	// AckCoalesce is the same experiment re-timed with receiver-side ACK
	// coalescing on (sequential engine). Gating it keeps the opt-in fast
	// path fast: a change that quietly erodes the coalesced mode's
	// throughput fails here even if the default per-packet path is
	// untouched.
	AckCoalesce *ExpBench `json:"ack_coalesce_experiment,omitempty"`
	// MacroEvents is the same experiment re-timed with macro-event train
	// fusion on (sequential engine). Results are bit-identical to the
	// per-packet run; the key exists so the elision machinery's own cost
	// stays gated — a change that makes the armed-train bookkeeping
	// expensive fails here even if the default path is untouched.
	MacroEvents *ExpBench `json:"macro_event_experiment,omitempty"`
}

func runBench(pkgs []string, expName, scale string, seed int64, reps, shards int) (*BenchBaseline, error) {
	args := append([]string{"test", "-run", "^$", "-bench", ".", "-benchmem"}, pkgs...)
	fmt.Printf("== bench: go %s\n", strings.Join(args, " "))
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	base := &BenchBaseline{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Packages:  pkgs,
	}
	for _, line := range strings.Split(string(out), "\n") {
		r, ok := parseBenchLine(line)
		if ok {
			base.Results = append(base.Results, r)
		}
	}
	if len(base.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed from output:\n%s", out)
	}
	eb, err := runExpBench(expName, scale, seed, 0, false, false, reps)
	if err != nil {
		return nil, err
	}
	base.Experiment = eb
	if shards > 1 {
		sb, err := runExpBench(expName, scale, seed, shards, false, false, reps)
		if err != nil {
			return nil, err
		}
		base.Sharded = sb
	}
	cb, err := runExpBench(expName, scale, seed, 0, true, false, reps)
	if err != nil {
		return nil, err
	}
	base.AckCoalesce = cb
	mb, err := runExpBench(expName, scale, seed, 0, false, true, reps)
	if err != nil {
		return nil, err
	}
	base.MacroEvents = mb
	return base, nil
}

// runExpBench times one full experiment in-process, reps times, and
// reports the best repetition: the engine-level throughput the
// microbenchmarks cannot see, with best-of-N filtering out the
// co-tenant noise a single wall-clock sample cannot.
func runExpBench(name, scale string, seed int64, shards int, coalesce, macro bool, reps int) (*ExpBench, error) {
	if reps < 1 {
		reps = 1
	}
	fmt.Printf("== bench-exp: %s scale=%s seed=%d shards=%d coalesce=%v macro=%v reps=%d\n",
		name, scale, seed, shards, coalesce, macro, reps)
	cfg := exp.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.AckCoalesce = coalesce
	cfg.MacroEvents = macro
	var best *ExpBench
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		_, rs, err := exp.RunWithStats(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", name, err)
		}
		wall := time.Since(start)
		eb := &ExpBench{
			Name: name, Scale: scale, Seed: seed,
			Shards:          shards,
			AckCoalesce:     coalesce,
			MacroEvents:     macro,
			Samples:         reps,
			Events:          rs.Events,
			WallSeconds:     wall.Seconds(),
			EventsPerSec:    float64(rs.Events) / wall.Seconds(),
			EventSlotAllocs: rs.EventSlotAllocs,
			PeakFCTRecords:  rs.PeakFCTRecords,
		}
		fmt.Printf("   rep %d: %d events in %.2fs (%.2fM ev/s), %d event slot allocs, peak %d FCT records\n",
			rep+1, eb.Events, eb.WallSeconds, eb.EventsPerSec/1e6, eb.EventSlotAllocs, eb.PeakFCTRecords)
		if best == nil || eb.EventsPerSec > best.EventsPerSec {
			best = eb
		}
	}
	fmt.Printf("   best: %.2fM ev/s over %d rep(s)\n", best.EventsPerSec/1e6, reps)
	return best, nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readBaseline(path string) (*BenchBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compareBaselines gates cur against base and returns the number of
// regressions beyond threshold. Gated metrics: every "events/sec"
// (higher is better) and "allocs/op" (lower is better), plus the
// sequential, sharded, ACK-coalesced, and macro-event experiments'
// events/sec.
// ns/op deltas are
// printed as context only, and any key where either side is a single
// sample (Iterations <= 1, experiment Samples <= 1) is demoted to an
// advisory warning — one sample cannot separate a regression from a
// scheduling hiccup.
func compareBaselines(base, cur *BenchBaseline, threshold float64) int {
	curByName := map[string]BenchResult{}
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	regressions := 0
	for _, b := range base.Results {
		c, ok := curByName[b.Name]
		if !ok {
			// A renamed or deleted benchmark is a baseline-hygiene issue,
			// not a performance regression; warn so the author refreshes
			// the baseline, but don't fail the gate on a one-sided key.
			fmt.Printf("warn %-40s missing from current run (refresh the baseline?)\n", b.Name)
			continue
		}
		single := b.Iterations <= 1 || c.Iterations <= 1
		for metric, bv := range b.Metrics {
			cv, ok := c.Metrics[metric]
			if !ok {
				continue
			}
			switch metric {
			case "events/sec":
				switch {
				case cv >= bv*(1-threshold):
					fmt.Printf("gate %-40s %s %.3g -> %.3g ok\n", b.Name, metric, bv, cv)
				case single:
					fmt.Printf("warn %-40s %s %.3g -> %.3g (-%.1f%%) single-sample, advisory only\n",
						b.Name, metric, bv, cv, 100*(1-cv/bv))
				default:
					fmt.Printf("gate %-40s %s %.3g -> %.3g (-%.1f%%) REGRESSED\n",
						b.Name, metric, bv, cv, 100*(1-cv/bv))
					regressions++
				}
			case "allocs/op":
				switch {
				case cv <= bv*(1+threshold)+0.5:
					fmt.Printf("gate %-40s %s %.3g -> %.3g ok\n", b.Name, metric, bv, cv)
				case single:
					fmt.Printf("warn %-40s %s %.3g -> %.3g single-sample, advisory only\n",
						b.Name, metric, bv, cv)
				default:
					fmt.Printf("gate %-40s %s %.3g -> %.3g REGRESSED\n", b.Name, metric, bv, cv)
					regressions++
				}
			case "ns/op":
				fmt.Printf("info %-40s %s %.4g -> %.4g (not gated)\n", b.Name, metric, bv, cv)
			}
		}
	}
	regressions += compareExp("experiment", base.Experiment, cur.Experiment, threshold)
	regressions += compareExp("sharded-experiment", base.Sharded, cur.Sharded, threshold)
	regressions += compareExp("ack-coalesce-experiment", base.AckCoalesce, cur.AckCoalesce, threshold)
	regressions += compareExp("macro-events-experiment", base.MacroEvents, cur.MacroEvents, threshold)
	return regressions
}

// compareExp gates one timed-experiment key pair (sequential, sharded,
// ACK-coalesced, or macro-event) and returns its regression count. The
// pair must describe the same run (name, scale, shard count, ACK mode,
// macro mode) to be comparable; mismatched or one-sided keys warn without
// gating.
func compareExp(label string, b, c *ExpBench, threshold float64) int {
	switch {
	case b == nil && c == nil:
		return 0
	case b == nil || c == nil:
		fmt.Printf("warn %s key present on one side only (refresh the baseline?)\n", label)
		return 0
	case b.Name != c.Name || b.Scale != c.Scale || b.Shards != c.Shards ||
		b.AckCoalesce != c.AckCoalesce || b.MacroEvents != c.MacroEvents:
		fmt.Printf("warn %s keys differ (%s/%s shards=%d coalesce=%v macro=%v vs %s/%s shards=%d coalesce=%v macro=%v), not compared\n",
			label, b.Name, b.Scale, b.Shards, b.AckCoalesce, b.MacroEvents,
			c.Name, c.Scale, c.Shards, c.AckCoalesce, c.MacroEvents)
		return 0
	}
	id := fmt.Sprintf("%s %s/%s", label, b.Name, b.Scale)
	regressions := 0
	bv, cv := b.EventsPerSec, c.EventsPerSec
	switch {
	case cv >= bv*(1-threshold):
		fmt.Printf("gate %s events/sec %.3g -> %.3g (%+.1f%%) ok\n", id, bv, cv, 100*(cv/bv-1))
	case b.Samples <= 1 || c.Samples <= 1:
		fmt.Printf("warn %s events/sec %.3g -> %.3g (-%.1f%%) single-sample, advisory only\n",
			id, bv, cv, 100*(1-cv/bv))
	default:
		fmt.Printf("gate %s events/sec %.3g -> %.3g (-%.1f%%) REGRESSED\n",
			id, bv, cv, 100*(1-cv/bv))
		regressions++
	}
	// Peak retained FCT records: a memory gauge, so lower is better and
	// growth beyond threshold fails. Deterministic (not wall-clock), so it
	// gates even on single-sample runs. A zero baseline (recorded before
	// the gauge existed) only reports.
	bp, cp := b.PeakFCTRecords, c.PeakFCTRecords
	switch {
	case bp == 0:
		fmt.Printf("info %s peak FCT records %d (no baseline, not gated)\n", id, cp)
	case float64(cp) > float64(bp)*(1+threshold):
		fmt.Printf("gate %s peak FCT records %d -> %d (+%.1f%%) REGRESSED\n",
			id, bp, cp, 100*(float64(cp)/float64(bp)-1))
		regressions++
	default:
		fmt.Printf("gate %s peak FCT records %d -> %d ok\n", id, bp, cp)
	}
	return regressions
}

// parseBenchLine parses "BenchmarkX-8  123  456 ns/op  7 B/op ..." lines.
func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	r := BenchResult{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return BenchResult{}, false
	}
	return r, true
}
