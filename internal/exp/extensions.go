package exp

import "faircc/internal/metrics"

// Extension experiments beyond the paper's figures: the TIMELY transfer
// of VAI+SF (the paper claims the mechanisms apply to "a multitude" of
// sender-side protocols), the DCTCP baseline, and the hyper-AI Swift
// extension the paper suggests for its Hadoop median-slowdown artifact.

func init() {
	register(single("incast-timely", "16-1 incast under TIMELY with and without VAI SF "+
		"(mechanism generality beyond HPCC/Swift)",
		func(cfg Config) (*Result, error) {
			p := starParams(starMinBDP(16), hostRate)
			outs, err := runIncastSet(cfg, timelyVariants(p), paperIncast(16), nil)
			if err != nil {
				return nil, err
			}
			res := &Result{Name: "incast-timely", Title: "TIMELY 16-1 incast",
				XLabel: "time (us)", YLabel: "Jain fairness index"}
			for _, o := range outs {
				res.Series = append(res.Series, o.jain)
				res.Notef("%s: smoothed Jain reaches 0.9 at %.0f us (-1 = never); max queue %.0f KB",
					o.label, o.convergeUs, o.maxQueueKB)
			}
			return res, nil
		}))

	register(single("incast-dctcp", "16-1 incast under DCTCP (congestion-extent-scaled decreases, Sec. III-A)",
		func(cfg Config) (*Result, error) {
			outs, err := runIncastSet(cfg, []variant{dctcpVariant()}, paperIncast(16), nil)
			if err != nil {
				return nil, err
			}
			res := &Result{Name: "incast-dctcp", Title: "DCTCP 16-1 incast",
				XLabel: "time (us)", YLabel: "Jain fairness index"}
			res.Series = append(res.Series, outs[0].jain)
			res.Notef("DCTCP: smoothed Jain reaches 0.9 at %.0f us; max queue %.0f KB",
				outs[0].convergeUs, outs[0].maxQueueKB)
			return res, nil
		}))

	register(single("ablate-swift-hai", "Swift hyper additive increase (Sec. VI-B suggestion): "+
		"median FCT on Hadoop traffic, small fat-tree", runSwiftHAI))
}

// runSwiftHAI compares default Swift against Swift with hyper-AI on the
// small-scale Hadoop datacenter workload, reporting median slowdowns by
// size class. The paper attributes Swift's poor Hadoop median to its
// single, constant additive increase recovering bandwidth slowly.
func runSwiftHAI(cfg Config) (*Result, error) {
	small := cfg
	small.Scale = "small"
	ftCfg, duration, err := dcScale(small)
	if err != nil {
		return nil, err
	}
	specs, err := dcTraffic(small, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		return nil, err
	}
	p := dcParams(dcMinBDP(ftCfg), ftCfg.HostBps)
	vs := []variant{swiftBaselines(p)[0], swiftHAIVariant(p)}
	outs, err := runDCSet(small, vs, ftCfg, specs)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "ablate-swift-hai", Title: "Swift hyper-AI ablation",
		XLabel: "flow size (bytes)", YLabel: "median FCT slowdown"}
	for i, o := range outs {
		res.Series = append(res.Series, slowdownSeries(vs[i].label, o.records, 50, 50))
		if sd, err := metrics.SlowdownAbove(o.records, 100_000, 50); err == nil {
			res.Notef("%s: median slowdown of >100KB flows = %.2fx", vs[i].label, sd)
		}
	}
	return res, nil
}
