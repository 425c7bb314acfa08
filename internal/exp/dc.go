package exp

import (
	"fmt"

	"faircc/internal/fluid"
	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/par"
	"faircc/internal/sim"
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

const dcLoad = 0.5

// dcTraffic generates the flow set for a workload name ("hadoop" or
// "mix"), identical across protocol variants so comparisons are paired.
func dcTraffic(cfg Config, ftCfg topo.FatTreeConfig, duration sim.Time, name string) ([]net.FlowSpec, error) {
	hosts := make([]int, ftCfg.NumHosts())
	for i := range hosts {
		hosts[i] = i
	}
	pc := workload.PoissonConfig{
		Hosts:    hosts,
		Load:     dcLoad,
		LinkBps:  ftCfg.HostBps,
		Duration: duration,
		Seed:     cfg.Seed,
	}
	switch name {
	case "hadoop":
		pc.Sizes = workload.Hadoop()
		return workload.Poisson(pc), nil
	case "mix":
		return workload.Mixed(pc, workload.WebSearch(), workload.Storage()), nil
	}
	return nil, fmt.Errorf("exp: unknown workload %q", name)
}

// runDC runs one datacenter simulation: the given traffic on the fat-tree
// under one protocol variant, returning per-flow completion records and
// the network's counter snapshot (the ack-coalesce experiment reads the
// ACK counters; figure assembly ignores it).
// Completion records are collected after the run (CollectFinished) rather
// than via an OnFlowFinish recorder, so the same code path serves
// sequential and sharded runs — on a sharded network finish callbacks
// fire on worker goroutines. Every derived output sorts, so the record
// order difference is invisible (goldens are bit-identical).
func runDC(cfg Config, v variant, ftCfg topo.FatTreeConfig, specs []net.FlowSpec) ([]metrics.FlowRecord, net.NetworkStats, error) {
	eng := sim.NewEngine()
	nw := net.New(eng, cfg.Seed)
	nw.AckCoalesce = cfg.AckCoalesce
	ft := topo.NewFatTree(nw, ftCfg)
	if cfg.Shards > 1 {
		assign, k := ft.ShardMap(cfg.Shards)
		nw.Shard(assign, k)
	}
	for _, spec := range specs {
		nw.AddFlow(spec, v.make())
	}
	if nw.Shards() > 1 {
		if err := runSimSharded(cfg, v.label, nw); err != nil {
			return nil, net.NetworkStats{}, fmt.Errorf("%s: %w", v.label, err)
		}
	} else {
		runSim(cfg, v.label, eng, nw)
	}
	if !nw.AllFinished() {
		return nil, net.NetworkStats{}, fmt.Errorf("%s: flows did not finish", v.label)
	}
	if err := nw.CheckConservation(); err != nil {
		return nil, net.NetworkStats{}, fmt.Errorf("%s: %w", v.label, err)
	}
	records := metrics.CollectFinished(nw)
	cfg.notePeakFCT(len(records))
	return records, nw.Stats(), nil
}

// dcMinBDP probes the fat-tree's minimum BDP (the shortest, same-ToR
// path), the paper's VAI token threshold, with the same 0.8x
// round-down margin as starMinBDP (see that function's comment).
func dcMinBDP(ftCfg topo.FatTreeConfig) float64 {
	nw := net.New(sim.NewEngine(), 0)
	ft := topo.NewFatTree(nw, ftCfg)
	_, baseRTT, _, err := nw.ProbePath(net.FlowSpec{
		ID: 1, Src: ft.Hosts[0].NodeID(), Dst: ft.Hosts[1].NodeID(), Size: 1})
	if err != nil {
		panic(err) // the fat-tree we just built is always probeable
	}
	return 0.8 * ftCfg.HostBps / 8 * baseRTT.Seconds()
}

// dcVariants returns the four protocols Figs. 10-13 compare.
func dcVariants(p pathParams) []variant {
	return []variant{
		hpccBaselines()[0],
		hpccVAISF(p),
		{"Swift", swiftBaselines(p)[0].make},
		swiftVAISF(p),
	}
}

// dcFigure assembles a slowdown-versus-flow-size figure: pct = 99.9 for
// the tail figures (10, 11), 50 for the median figures (12, 13).
func dcFigure(name, title, workloadName string, pct float64) *Experiment {
	return &Experiment{
		Name:  name,
		Title: title,
		Run: func(cfg Config) (*Result, error) {
			ftCfg, duration, err := dcScale(cfg)
			if err != nil {
				return nil, err
			}
			specs, err := dcTraffic(cfg, ftCfg, duration, workloadName)
			if err != nil {
				return nil, err
			}
			p := dcParams(dcMinBDP(ftCfg), ftCfg.HostBps)
			vs := dcVariants(p)

			outs, err := par.MapErr(len(vs), cfg.Workers, func(i int) ([]metrics.FlowRecord, error) {
				records, _, err := runDC(cfg, vs[i], ftCfg, specs)
				return records, err
			})
			if err != nil {
				return nil, err
			}

			res := &Result{Name: name, Title: title,
				XLabel: "flow size (bytes)",
				YLabel: fmt.Sprintf("p%v FCT slowdown", pct)}
			res.Notef("scale=%s hosts=%d duration=%v load=%.0f%% flows=%d",
				cfg.Scale, ftCfg.NumHosts(), duration, dcLoad*100, len(specs))
			long := map[string]float64{}
			for i, records := range outs {
				s := Series{Label: vs[i].label}
				for _, b := range metrics.BucketBySize(records, 100, pct) {
					s.Add(float64(b.MaxSize), b.Slowdown)
				}
				res.Series = append(res.Series, s)
				if sd, err := metrics.SlowdownAbove(records, 1_000_000, pct); err == nil {
					long[vs[i].label] = sd
					res.Notef("%s: p%v slowdown of >1MB flows = %.1fx", vs[i].label, pct, sd)
				}
			}
			for _, base := range []string{"HPCC", "Swift"} {
				if b, ok := long[base]; ok {
					if v, ok := long[base+" VAI SF"]; ok && v > 0 {
						res.Notef("%s long-flow tail improvement: %.2fx", base, b/v)
					}
				}
			}
			return res, nil
		},
	}
}

func init() {
	register(&Experiment{
		Name:  "fig4",
		Title: "Fluid model: fairness gap of per-RTT vs Sampling Frequency decreases",
		Run: func(cfg Config) (*Result, error) {
			c := fluid.DefaultConfig()
			pts := fluid.Integrate(c, 500, 3e6)
			res := &Result{Name: "fig4", Title: "Fluid-model fairness difference",
				XLabel: "time (ns)", YLabel: "(R1-R0)-(S1-S0) (bytes/ns)"}
			s := Series{Label: "fairness gap"}
			peak := 0.0
			for _, p := range pts {
				s.Add(p.T, p.Gap)
				if p.Gap > peak {
					peak = p.Gap
				}
			}
			res.Series = append(res.Series, s)
			res.Notef("condition 1/r < (C1+C0)/(s*MTU) holds: %v", c.ConvergesFaster())
			res.Notef("gap peaks at %.3f bytes/ns and diminishes to %.4f",
				peak, pts[len(pts)-1].Gap)
			return res, nil
		},
	})

	register(dcFigure("fig10", "99.9% FCT slowdown vs flow size, Hadoop traffic", "hadoop", 99.9))
	register(dcFigure("fig11", "99.9% FCT slowdown vs flow size, WebSearch+Storage traffic", "mix", 99.9))
	register(dcFigure("fig12", "Median FCT slowdown vs flow size, Hadoop traffic", "hadoop", 50))
	register(dcFigure("fig13", "Median FCT slowdown vs flow size, WebSearch+Storage traffic", "mix", 50))
}
