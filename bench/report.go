package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's whole vocabulary: BENCHMARK.json repeats them (and adds each
// end-to-end metric's regression bound), and a test keeps the two in
// step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are what a user of the simulator pays to get its numbers;
// lower is better for all.
var endToEnd = []metricDef{
	// Child start to first Step: traffic generation, topology + routes,
	// Shard, AddFlow. Median of the set-ups repeated in each rep, in
	// seconds at the reference kernel's nominal speed (see refNominalNs).
	{"setup_s", "s"},
	// Run-phase host time per delivered data packet, in operations of the
	// reference kernel interleaved with it. Per packet, because packets
	// delivered is the one measure of simulated work that no change to
	// the simulator can move, so the value means the same at every seed;
	// in reference operations, because the box drifts and the ratio of
	// two interleaved timings does not.
	{"refops_per_pkt", "refops/pkt"},
	// Child ru_maxrss at exit.
	{"peak_rss_mb", "MB"},
}

// rawTotals are printed beside the end-to-end metrics: whole-run host
// time and allocation. At one seed the allocation totals repeat to 0.1%
// and compare two versions exactly; across seeds they move with the
// traffic (allocation per packet by 7-13% between seeds on the dc_*
// workloads), so they carry no bound.
var rawTotals = []metricDef{
	{"setup_raw_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
	{"ref_ns_per_op", "ns"},
}

// untracedMedian marks the per-layer metrics taken as the median of the
// untraced reps instead of from the traced run.
var untracedMedian = map[string]bool{
	"sim.ns_per_event": true, "sim.events_per_s": true,
	"runtime.bytes_per_event": true, "runtime.allocs_per_kevent": true, // the tracer allocates too
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"workload.generate_s", "s"}, {"workload.flows", "count"},
		{"topo.build_s", "s"},
		{"net.add_flows_s", "s"},

		{"sim.events", "count"}, {"sim.events_scheduled", "count"}, {"sim.events_cancelled", "count"},
		{"sim.peak_pending", "count"}, {"sim.slot_allocs", "count"}, {"sim.events_per_pkt", "1/pkt"},
		{"sim.ns_per_event", "ns"}, {"sim.events_per_s", "1/s"},
		{"sim.batch_ns_per_event_p50", "ns"}, {"sim.batch_ns_per_event_p99", "ns"}, {"sim.pending_mean", "count"},
		{"sim.cpu_share", "%"},
		{"sim.parallel.epochs", "count"}, {"sim.parallel.events_per_epoch", "count"},
		{"sim.parallel.shard_imbalance", "ratio"}, {"sim.parallel.cpu_per_wall", "ratio"},
		{"sim.parallel.cpu_share", "%"}, {"sim.parallel.speedup", "ratio"},

		{"net.port.cpu_share", "%"}, {"net.switch.cpu_share", "%"}, {"net.transport.cpu_share", "%"}, {"net.other.cpu_share", "%"},
		{"net.data_pkts", "count"}, {"net.acks", "count"}, {"net.pool_gets", "count"}, {"net.pool_allocs", "count"},
		{"net.queue_cap_peak", "count"}, {"net.queue_shrinks", "count"}, {"net.max_queue_kb", "KB"},
		{"net.drops", "count"}, {"net.retransmits", "count"}, {"net.rto_fires", "count"}, {"net.pfc_pauses", "count"},
		{"net.verify_s", "s"},

		{"cc.on_ack_calls", "count"}, {"cc.on_ack_ns", "ns"}, {"cc.share_of_run", "%"}, {"cc.cpu_share", "%"},

		{"metrics.collect_s", "s"}, {"metrics.samples", "count"}, {"metrics.cpu_share", "%"},

		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cpu_share", "%"},
		{"runtime.mem_cpu_share", "%"}, {"runtime.other_cpu_share", "%"},
		{"runtime.bytes_per_event", "B"}, {"runtime.allocs_per_kevent", "1/kevent"},

		{"setup.cpu_share", "%"}, {"bench.cpu_share", "%"}, {"other.cpu_share", "%"},
	}
	// Simulated-time results, one per variant: a speed-only change must
	// leave them identical. Reported, never gated.
	for _, m := range []metricDef{
		{"model.p999_slowdown_long", "ratio"}, {"model.p50_slowdown", "ratio"},
		{"model.jain_converge_us", "us"}, {"model.max_queue_kb", "KB"},
	} {
		for _, v := range variantKeys {
			defs = append(defs, metricDef{m.Name + "." + v, m.Unit})
		}
	}
	return append(defs,
		metricDef{"model.sim_ms", "ms"},
		metricDef{"model.digest", "hash48"},
		metricDef{"trace.overhead_pct", "%"},
	)
}

// workloadResult is everything measured for one workload: its raw reps
// and what is derived from them.
type workloadResult struct {
	Name     string       `json:"name"`
	Flows    int          `json:"flows"`        // attempted, over every rep
	Failed   int          `json:"flows_failed"` // see finish
	Failures []string     `json:"failures,omitempty"`
	Reps     []*repResult `json:"reps"`   // untraced, raw
	Traced   *repResult   `json:"traced"` // raw; nil when no traced rep ran

	EndToEnd map[string]summary `json:"end_to_end"`
	Totals   map[string]summary `json:"totals"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	spec      workloadSpec
	twinWallS float64 // sharded only: median run time of the sequential twin
}

// samples returns one metric's value in every untraced rep.
func (r *workloadResult) samples(metric string) []float64 {
	xs := make([]float64, 0, len(r.Reps))
	for _, rep := range r.Reps {
		xs = append(xs, rep.Metrics[metric])
	}
	return xs
}

// finish derives the workload's summaries from its raw reps and applies
// the cross-rep half of the correctness gate: every rep of a workload,
// traced or not, must produce the same digest, or every flow of the
// workload counts as failed.
func (r *workloadResult) finish() {
	all := append([]*repResult(nil), r.Reps...)
	if r.Traced != nil {
		all = append(all, r.Traced)
	}
	r.Flows, r.Failed, r.Failures = 0, 0, nil
	mismatch := false
	for _, rep := range all {
		r.Flows += rep.Flows
		r.Failed += rep.Failed
		r.Failures = append(r.Failures, rep.Failures...)
		if rep.Digest != all[0].Digest {
			mismatch = true
			r.Failures = append(r.Failures, fmt.Sprintf("model.digest differs between reps: %s vs %s", all[0].Digest[:12], rep.Digest[:12]))
		}
	}
	if mismatch {
		r.Failed = r.Flows
	}

	r.EndToEnd = map[string]summary{}
	for _, d := range endToEnd {
		r.EndToEnd[d.Name] = summarize(r.samples(d.Name))
	}
	r.Totals = map[string]summary{}
	for _, d := range rawTotals {
		r.Totals[d.Name] = summarize(r.samples(d.Name))
	}
	if r.Traced == nil {
		return
	}
	r.PerLayer = map[string]float64{}
	for _, d := range perLayer {
		v := r.Traced.Metrics[d.Name] // 0 where the layer does not exist on this workload
		if untracedMedian[d.Name] {
			v = median(r.samples(d.Name))
		}
		r.PerLayer[d.Name] = v
	}
	// In calibrated time: the traced rep runs in a later window than the
	// untraced ones, and the box's drift between windows is larger than
	// the overhead.
	r.PerLayer["trace.overhead_pct"] = 100 * (r.Traced.Metrics["refops_per_pkt"]/r.EndToEnd["refops_per_pkt"].Median - 1)
	if r.twinWallS > 0 {
		r.PerLayer["sim.parallel.speedup"] = r.twinWallS / r.Totals["wall_s"].Median
	}
}

// print writes every metric by name with its unit.
func (r *workloadResult) print(w io.Writer, seed int64) {
	traced := 0
	if r.Traced != nil {
		traced = 1
	}
	fmt.Fprintf(w, "\n== %s  seed %d, %d untraced reps + %d traced; flows %d attempted, %d failed\n",
		r.Name, seed, len(r.Reps), traced, r.Flows, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	fmt.Fprintf(w, "%-36s %-11s %14s %14s %14s %14s %8s %3s\n", "end to end", "unit", "median", "min", "q1", "q3", "spread", "n")
	row := func(d metricDef, s summary) {
		fmt.Fprintf(w, "%-36s %-11s %14s %14s %14s %14s %7.2f%% %3d\n",
			d.Name, d.Unit, fmtValue(s.Median), fmtValue(s.Min), fmtValue(s.Q1), fmtValue(s.Q3), 100*s.spread(), s.N)
	}
	for _, d := range endToEnd {
		row(d, r.EndToEnd[d.Name])
	}
	for _, d := range rawTotals {
		row(d, r.Totals[d.Name])
	}
	if r.Traced == nil {
		return
	}
	fmt.Fprintf(w, "%-36s %-11s %14s   (traced run; u = median of the untraced reps)\n", "per layer", "unit", "value")
	for _, d := range perLayer {
		u := ""
		if untracedMedian[d.Name] {
			u = " u"
		}
		fmt.Fprintf(w, "%-36s %-11s %14s%s\n", d.Name, d.Unit, fmtValue(r.PerLayer[d.Name]), u)
	}
	sum := 0.0
	for _, b := range shareBuckets {
		sum += r.PerLayer[shareMetric(b)]
	}
	fmt.Fprintf(w, "cpu shares sum to %.1f%%", sum)
	if o := r.PerLayer["other.cpu_share"]; o > 5 {
		fmt.Fprintf(w, "; WARNING: %.1f%% of CPU time fell outside every layer rule", o)
	}
	fmt.Fprintln(w)
}

// fmtValue prints counts with all their digits - they are exact, and a
// reader compares them digit by digit - and measurements to six figures.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// resultsFile is the suite's saved output: provenance, the raw reps, and
// every statistic computed from them.
type resultsFile struct {
	Meta      meta              `json:"meta"`
	Claim     *string           `json:"claim"` // always null: the benchmark's own change claims no gain
	Workloads []*workloadResult `json:"workloads"`
}
