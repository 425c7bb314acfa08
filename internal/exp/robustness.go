package exp

import (
	"fmt"
	"strings"

	"faircc/internal/stats"
)

// The robustness experiment repeats Fig. 10's run across several seeds,
// reporting each seed's long-flow tails, the per-seed improvement factors
// and their spread — the check a skeptical reader wants before trusting a
// single-seed figure.

func init() {
	register(single("robustness", "Seed sweep of the Fig. 10 headline: long-flow p99.9 "+
		"improvement across 5 seeds", runRobustness))
}

func runRobustness(cfg Config) (*Result, error) {
	const nSeeds = 5
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{XLabel: "seed", YLabel: "p99.9 improvement factor (default / VAI SF)"}
	res.Notef("scale=%s hosts=%d duration=%v seeds=%d", cfg.Scale,
		ftCfg.NumHosts(), duration, nSeeds)
	protos := []Series{{Label: "HPCC"}, {Label: "Swift"}}
	for i := 0; i < nSeeds; i++ {
		seedCfg := cfg
		seedCfg.Seed = cfg.Seed + int64(i)
		out, err := runFatTree(seedCfg, "hadoop", dcVariants) // fig10's run at this seed
		if err != nil {
			return nil, err
		}
		tails := make([]string, len(out.vs))
		for j, v := range out.vs {
			sd, err := out.longSlowdown(j, 99.9)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", v.label, seedCfg.Seed, err)
			}
			tails[j] = fmt.Sprintf("%s %.1fx", v.label, sd)
		}
		res.Notef("seed %d: p99.9 slowdown of >1MB flows: %s", seedCfg.Seed, strings.Join(tails, ", "))
		for k, base := range []int{dcHPCC, dcSwift} {
			protos[k].Add(float64(seedCfg.Seed), out.improvement(base, 99.9))
		}
	}
	for _, s := range protos {
		sum := stats.Summarize(s.Y)
		res.Notef("%s: improvement mean %.2fx, min %.2fx, max %.2fx over %d seeds",
			s.Label, sum.Mean, sum.Min, sum.Max, len(s.Y))
	}
	res.Series = protos
	return res, nil
}
