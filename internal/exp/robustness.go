package exp

import (
	"fmt"

	"faircc/internal/metrics"
	"faircc/internal/par"
	"faircc/internal/stats"
)

// The robustness experiment re-runs the headline datacenter result
// (Fig. 10's long-flow tail improvement) across several seeds, reporting
// the per-seed improvement factors and their spread — the check a
// skeptical reader wants before trusting a single-seed figure.

func init() {
	register(&Experiment{
		Name: "robustness",
		Title: "Seed sweep of the Fig. 10 headline: long-flow p99.9 " +
			"improvement across 5 seeds",
		Run: runRobustness,
	})
}

func runRobustness(cfg Config) (*Result, error) {
	const nSeeds = 5
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		return nil, err
	}
	p := dcParams(dcMinBDP(ftCfg), ftCfg.HostBps)

	outs, err := par.MapErr(nSeeds, cfg.Workers, func(i int) (map[string]float64, error) {
		seedCfg := cfg
		seedCfg.Seed = cfg.Seed + int64(i)
		specs, err := dcTraffic(seedCfg, ftCfg, duration, "hadoop", dcLoad)
		if err != nil {
			return nil, err
		}
		tail := map[string]float64{}
		for _, v := range dcVariants(p) {
			recs, _, err := runDC(seedCfg, v, ftCfg, specs)
			if err != nil {
				return nil, err
			}
			sd, err := metrics.SlowdownAbove(recs, 1_000_000, 99.9)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", v.label, seedCfg.Seed, err)
			}
			tail[v.label] = sd
		}
		imp := map[string]float64{}
		for _, proto := range []string{"HPCC", "Swift"} {
			if tail[proto+" VAI SF"] > 0 {
				imp[proto] = tail[proto] / tail[proto+" VAI SF"]
			}
		}
		return imp, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Name: "robustness",
		Title:  "Long-flow tail improvement across seeds (Hadoop)",
		XLabel: "seed", YLabel: "p99.9 improvement factor (default / VAI SF)"}
	res.Notef("scale=%s hosts=%d duration=%v seeds=%d", cfg.Scale,
		ftCfg.NumHosts(), duration, nSeeds)
	for _, proto := range []string{"HPCC", "Swift"} {
		s := Series{Label: proto}
		var vals []float64
		for i, imp := range outs {
			v, ok := imp[proto]
			if !ok {
				continue
			}
			s.Add(float64(cfg.Seed+int64(i)), v)
			vals = append(vals, v)
		}
		res.Series = append(res.Series, s)
		if len(vals) > 0 {
			sum := stats.Summarize(vals)
			res.Notef("%s: improvement mean %.2fx, min %.2fx, max %.2fx over %d seeds",
				proto, sum.Mean, sum.Min, sum.Max, len(vals))
		}
	}
	return res, nil
}
