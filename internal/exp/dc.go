package exp

import (
	"cmp"
	"fmt"
	"math"

	"faircc/internal/fluid"
	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/par"
	"faircc/internal/sim"
	"faircc/internal/stats"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// dcScale maps Config.Scale to a fat-tree size and traffic duration.
// "full" is the paper's setup: 320 hosts, 50 ms at 50% load.
func dcScale(cfg Config) (topo.FatTreeConfig, sim.Time, error) {
	switch cfg.Scale {
	case "small":
		return topo.DefaultFatTree().Scaled(2, 2, 2), 1 * sim.Millisecond, nil
	case "", "medium":
		return topo.DefaultFatTree().Scaled(2, 2, 8), 5 * sim.Millisecond, nil
	case "large":
		// The paper's topology at 1/50th of its traffic window: full-scale
		// forwarding tables, fan-out, and ECMP spread at a duration short
		// enough to serve as a timed benchmark.
		return topo.DefaultFatTree(), 1 * sim.Millisecond, nil
	case "full":
		return topo.DefaultFatTree(), 50 * sim.Millisecond, nil
	}
	return topo.FatTreeConfig{}, 0, fmt.Errorf("exp: unknown scale %q", cfg.Scale)
}

// dcSetup resolves the dc experiment's fabric and traffic window: the
// Scale preset with Config's DC* overrides folded in. It is also where a
// fabric nothing can run on is rejected — a count FatTreeConfig.Validate
// refuses, or fewer than two hosts (traffic generation needs a source and
// a different destination).
func dcSetup(cfg Config) (topo.FatTreeConfig, sim.Time, error) {
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		return ftCfg, 0, err
	}
	ftCfg = ftCfg.Scaled(cmp.Or(cfg.DCPods, ftCfg.Pods), cmp.Or(cfg.DCToRs, ftCfg.ToRsPerPod),
		cmp.Or(cfg.DCHostsPerToR, ftCfg.HostsPerToR))
	if err := ftCfg.Validate(); err != nil {
		return ftCfg, 0, err
	}
	if ftCfg.NumHosts() < 2 {
		return ftCfg, 0, fmt.Errorf("exp: need at least 2 hosts, have %d", ftCfg.NumHosts())
	}
	return ftCfg, cmp.Or(cfg.DCDuration, duration), nil
}

// dcLoad is the paper's offered load, as a fraction of host line rate.
const dcLoad = 0.5

// dcSizes resolves a workload name to its flow-size distributions: one of
// the three built-in CDFs, "mix" (WebSearch and Storage sharing the
// cluster), or else the path of a distribution file (workload.ParseCDF)
// that workload.CheckSizes accepts.
func dcSizes(name string) ([]*stats.CDF, error) {
	if name == "mix" {
		return []*stats.CDF{workload.WebSearch(), workload.Storage()}, nil
	}
	cdf, err := workload.ByName(name)
	if err != nil {
		if cdf, err = workload.LoadCDF(name); err == nil {
			err = workload.CheckSizes(cdf)
		}
		if err != nil {
			return nil, fmt.Errorf("exp: unknown workload or unusable distribution %q: %w", name, err)
		}
	}
	return []*stats.CDF{cdf}, nil
}

// dcTraffic resolves a workload name at the given load to its arrival
// stream's constructor: each variant pulls the same flows from a stream of
// its own, so comparisons are paired and no run holds the flow set. A
// window no flow arrives in is an error: its run would write a header-only
// CSV.
func dcTraffic(cfg Config, ftCfg topo.FatTreeConfig, duration sim.Time, name string, load float64) (func() *workload.Arrivals, error) {
	sizes, err := dcSizes(name)
	if err != nil {
		return nil, err
	}
	hosts := make([]int, ftCfg.NumHosts())
	for i := range hosts {
		hosts[i] = i
	}
	pc := workload.PoissonConfig{Hosts: hosts, Load: load, LinkBps: ftCfg.HostBps, Duration: duration, Seed: cfg.Seed}
	traffic := func() *workload.Arrivals { return workload.NewArrivals(pc, sizes...) }
	if _, ok := traffic().Next(); !ok {
		return nil, fmt.Errorf("exp: no flow in the window: load %v on %d hosts starts none within %v", load, len(hosts), duration)
	}
	return traffic, nil
}

// runDC runs one datacenter simulation: the traffic on the fat-tree under
// one protocol variant, flows added as they are pulled, returning per-flow
// completion records and the network's counter snapshot.
func runDC(cfg Config, v variant, ftCfg topo.FatTreeConfig, traffic func() *workload.Arrivals) ([]metrics.FlowRecord, net.NetworkStats, error) {
	nw, err := simulate(cfg, v.label, func(nw *net.Network) {
		topo.NewFatTree(nw, ftCfg)
		src := traffic()
		for spec, ok := src.Next(); ok; spec, ok = src.Next() {
			nw.AddFlow(spec, v.make())
		}
	})
	if err != nil {
		return nil, net.NetworkStats{}, err
	}
	return metrics.CollectFinished(nw), nw.Stats(), nil
}

// slowdownSeries is one curve of a slowdown-versus-flow-size figure: the
// pct-percentile slowdown in each of nBuckets equal-count size buckets.
func slowdownSeries(label string, records []metrics.FlowRecord, nBuckets int, pct float64) Series {
	s := Series{Label: label}
	for _, b := range metrics.BucketBySize(records, nBuckets, pct) {
		s.Add(float64(b.MaxSize), b.Slowdown)
	}
	return s
}

// The positions of the two protocols' default variants in dcVariants; each
// is followed by its VAI SF variant.
const (
	dcHPCC  = 0
	dcSwift = 2
)

// dcVariants returns the four protocols Figs. 10-13 compare.
func dcVariants(p pathParams) []variant {
	return []variant{hpccBaselines()[0], hpccVAISF(p), swiftBaselines(p)[0], swiftVAISF(p)}
}

// dcPlan is one datacenter run: a workload's traffic at a load on a
// fat-tree, the same flows under each of vs.
type dcPlan struct {
	ftCfg    topo.FatTreeConfig
	duration sim.Time
	workload string
	load     float64
	vs       []variant
}

// dcOut is what a dcPlan's run produces, one dcRun per variant in vs order.
type dcOut struct {
	dcPlan
	runs []dcRun
}

// dcRun is one variant's completion records and network counter snapshot
// (the dc experiment reports switched bytes and the deepest queue from it).
type dcRun struct {
	records []metrics.FlowRecord
	stats   net.NetworkStats
}

// run runs the plan's traffic under every variant in parallel; the first
// failing variant cancels the rest. Figs. 10-13, robustness, dc and the
// Swift hyper-AI ablation are all such runs.
func (p dcPlan) run(cfg Config) (*dcOut, error) {
	traffic, err := dcTraffic(cfg, p.ftCfg, p.duration, p.workload, p.load)
	if err != nil {
		return nil, err
	}
	runs, err := par.MapErr(len(p.vs), cfg.Workers, func(i int) (dcRun, error) {
		records, stats, err := runDC(cfg, p.vs[i], p.ftCfg, traffic)
		return dcRun{records, stats}, err
	})
	if err != nil {
		return nil, err
	}
	return &dcOut{p, runs}, nil
}

// runFatTree runs the named workload at the paper's load on the Scale
// preset's fat-tree under the variants vs sizes to that fabric. With
// dcVariants it is one of the paper's runs; Figs. 10-13 read two of them.
func runFatTree(cfg Config, workloadName string, vs func(pathParams) []variant) (*dcOut, error) {
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		return nil, err
	}
	return dcPlan{ftCfg, duration, workloadName, dcLoad, vs(dcParams(ftCfg))}.run(cfg)
}

// longSlowdown is the pct-percentile slowdown of the >1 MB flows under
// variant i: the long-flow tail (pct 99.9) the paper's headline reports.
func (o *dcOut) longSlowdown(i int, pct float64) (float64, error) {
	return metrics.SlowdownAbove(o.runs[i].records, 1_000_000, pct)
}

// improvement is the factor by which VAI SF cuts the protocol's long-flow
// slowdown: variant base (dcHPCC or dcSwift) over the VAI SF variant that
// follows it. It is 0 when a run had no >1 MB flow.
func (o *dcOut) improvement(base int, pct float64) float64 {
	def, errDef := o.longSlowdown(base, pct)
	vai, errVAI := o.longSlowdown(base+1, pct)
	if errDef != nil || errVAI != nil {
		return 0
	}
	return def / vai
}

// slowdownView is the slowdown-versus-flow-size figure of a fat-tree run
// at one percentile: 99.9 for the tail figures (10, 11), 50 for the median
// figures (12, 13).
func slowdownView(pct float64) func(Config, *dcOut) *Result {
	return func(cfg Config, out *dcOut) *Result {
		res := &Result{XLabel: "flow size (bytes)", YLabel: fmt.Sprintf("p%v FCT slowdown", pct)}
		res.Notef("scale=%s hosts=%d duration=%v load=%.0f%% flows=%d",
			cfg.Scale, out.ftCfg.NumHosts(), out.duration, dcLoad*100, len(out.runs[0].records))
		for i, run := range out.runs {
			res.Series = append(res.Series, slowdownSeries(out.vs[i].label, run.records, 100, pct))
			if sd, err := out.longSlowdown(i, pct); err == nil {
				res.Notef("%s: p%v slowdown of >1MB flows = %.1fx", out.vs[i].label, pct, sd)
			}
		}
		stat := "tail"
		if pct == 50 {
			stat = "median"
		}
		for _, base := range []int{dcHPCC, dcSwift} {
			if imp := out.improvement(base, pct); imp > 0 {
				res.Notef("%s long-flow %s improvement: %.2fx", out.vs[base].label, stat, imp)
			}
		}
		return res
	}
}

// paperFatTree is the paper's datacenter run on one workload, with its
// tail and median figures and the claim checked on it.
func paperFatTree(workloadName string, tail, median Figure, claim check[*dcOut]) *Experiment {
	return experiment(func(cfg Config) (*dcOut, error) { return runFatTree(cfg, workloadName, dcVariants) },
		[]view[*dcOut]{{tail, slowdownView(99.9)}, {median, slowdownView(50)}}, claim)
}

// planDC is what the dc experiment runs, resolved from Config's DC*
// fields (at their zero values: fig10's fabric and traffic under HPCC):
// the protocol without and with VAI SF.
func planDC(cfg Config) (dcPlan, error) {
	ftCfg, duration, err := dcSetup(cfg)
	if err != nil {
		return dcPlan{}, err
	}
	byKey := variantsByKey(dcParams(ftCfg))
	proto := cmp.Or(cfg.DCProtocol, "hpcc")
	return dcPlan{ftCfg, duration, cmp.Or(cfg.DCWorkload, "hadoop"), cmp.Or(cfg.DCLoad, dcLoad),
		[]variant{byKey[proto], byKey[proto+"-vaisf"]}}, nil
}

// runDCCustom is the dc experiment's run: one protocol with and without
// VAI SF on a fat-tree and a traffic mix of the caller's choosing.
func runDCCustom(cfg Config) (*dcOut, error) {
	p, err := planDC(cfg)
	if err != nil {
		return nil, err
	}
	return p.run(cfg)
}

// dcView is the dc experiment's figure: besides the fig10-style tail curve
// it reports the slowdown percentiles per flow-size class and how hard the
// fabric was driven.
func dcView(_ Config, out *dcOut) *Result {
	res := &Result{XLabel: "flow size (bytes)", YLabel: "p99.9 FCT slowdown"}
	res.Notef("hosts=%d workload=%s load=%.0f%% duration=%v flows=%d",
		out.ftCfg.NumHosts(), out.workload, out.load*100, out.duration, len(out.runs[0].records))
	classes := []struct {
		name     string
		min, max int64
	}{
		{"<10KB", 0, 10_000},
		{"10KB-100KB", 10_000, 100_000},
		{"100KB-1MB", 100_000, 1_000_000},
		{">1MB", 1_000_000, math.MaxInt64},
	}
	for i, run := range out.runs {
		res.Series = append(res.Series, slowdownSeries(out.vs[i].label, run.records, 100, 99.9))
		for _, c := range classes {
			var xs []float64
			for _, r := range run.records {
				if r.Size >= c.min && r.Size < c.max {
					xs = append(xs, r.Slowdown)
				}
			}
			if len(xs) > 0 {
				res.Notef("%s %s: %d flows, slowdown p50=%.1fx p99=%.1fx p99.9=%.1fx", out.vs[i].label, c.name,
					len(xs), stats.Percentile(xs, 50), stats.Percentile(xs, 99), stats.Percentile(xs, 99.9))
			}
		}
		res.Notef("%s: %.2f GB switched, deepest queue %d KB", out.vs[i].label,
			float64(run.stats.FabricTxBytes)/1e9, run.stats.MaxQueuePeak/1000)
	}
	return res
}

// fluidRun integrates the Sec. IV-B fluid model of two flows.
func fluidRun(Config) ([]fluid.Point, error) {
	return fluid.Integrate(fluid.DefaultConfig(), 500, 3e6), nil
}

// fluidView plots the model's fairness gap over time.
func fluidView(_ Config, pts []fluid.Point) *Result {
	res := &Result{XLabel: "time (ns)", YLabel: "(R1-R0)-(S1-S0) (bytes/ns)"}
	s := Series{Label: "fairness gap"}
	peak := 0.0
	for _, p := range pts {
		s.Add(p.T, p.Gap)
		peak = max(peak, p.Gap)
	}
	res.Series = append(res.Series, s)
	res.Notef("condition 1/r < (C1+C0)/(s*MTU) holds: %v", fluid.DefaultConfig().ConvergesFaster())
	res.Notef("gap peaks at %.3f bytes/ns and diminishes to %.4f", peak, pts[len(pts)-1].Gap)
	return res
}

func init() {
	register(experiment(fluidRun, []view[[]fluid.Point]{{Figure{"fig4",
		"Fluid model: fairness gap of per-RTT vs Sampling Frequency decreases"}, fluidView}}, fluidModel))
	register(experiment(runDCCustom, []view[*dcOut]{{Figure{"dc",
		"One protocol with and without VAI SF on a configurable fat-tree and workload"}, dcView}}))
	register(paperFatTree("hadoop",
		Figure{"fig10", "99.9% FCT slowdown vs flow size, Hadoop traffic"},
		Figure{"fig12", "Median FCT slowdown vs flow size, Hadoop traffic"}, medianUnaffected))
	register(paperFatTree("mix",
		Figure{"fig11", "99.9% FCT slowdown vs flow size, WebSearch+Storage traffic"},
		Figure{"fig13", "Median FCT slowdown vs flow size, WebSearch+Storage traffic"}, tailFCTHalved))
}
