package exp

import (
	"fmt"
	"slices"
	"strings"
)

// The robustness experiment repeats Fig. 10's run across several seeds,
// reporting each seed's long-flow tails, the per-seed improvement factors
// and their spread — the check a skeptical reader wants before trusting a
// single-seed figure.

func init() {
	register(experiment(runRobustness, []view[[][]float64]{{Figure{"robustness",
		"Seed sweep of the Fig. 10 headline: long-flow p99.9 improvement across 5 seeds"}, robustnessView}}))
}

// runRobustness runs Fig. 10's run at nSeeds seeds from cfg.Seed on and
// keeps, per seed, each variant's long-flow p99.9 slowdown in dcVariants
// order: no seed's flow records outlive its run.
func runRobustness(cfg Config) ([][]float64, error) {
	const nSeeds = 5
	tails := make([][]float64, nSeeds)
	for i := range tails {
		seedCfg := cfg
		seedCfg.Seed = cfg.Seed + int64(i)
		out, err := runFatTree(seedCfg, "hadoop", dcVariants) // fig10's run at this seed
		if err != nil {
			return nil, err
		}
		for j, v := range out.vs {
			sd, err := out.longSlowdown(j, 99.9)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", v.label, seedCfg.Seed, err)
			}
			tails[i] = append(tails[i], sd)
		}
	}
	return tails, nil
}

// robustnessView plots each protocol's improvement factor (default over
// VAI SF, as dcOut.improvement) per seed.
func robustnessView(cfg Config, tails [][]float64) *Result {
	ftCfg, duration, _ := dcScale(cfg) // the run resolved it
	vs := dcVariants(pathParams{})     // for the labels
	res := &Result{XLabel: "seed", YLabel: "p99.9 improvement factor (default / VAI SF)"}
	res.Notef("scale=%s hosts=%d duration=%v seeds=%d", cfg.Scale,
		ftCfg.NumHosts(), duration, len(tails))
	protos := []Series{{Label: "HPCC"}, {Label: "Swift"}}
	for i, t := range tails {
		seed := cfg.Seed + int64(i)
		labelled := make([]string, len(t))
		for j, sd := range t {
			labelled[j] = fmt.Sprintf("%s %.1fx", vs[j].label, sd)
		}
		res.Notef("seed %d: p99.9 slowdown of >1MB flows: %s", seed, strings.Join(labelled, ", "))
		for k, base := range []int{dcHPCC, dcSwift} {
			protos[k].Add(float64(seed), t[base]/t[base+1])
		}
	}
	for _, s := range protos {
		ys := slices.Clone(s.Y)
		slices.Sort(ys) // summed in ascending order
		var sum float64
		for _, y := range ys {
			sum += y
		}
		res.Notef("%s: improvement mean %.2fx, min %.2fx, max %.2fx over %d seeds",
			s.Label, sum/float64(len(ys)), ys[0], ys[len(ys)-1], len(ys))
	}
	res.Series = protos
	return res
}
