package exp

import (
	"fmt"
	"slices"
)

// Claim is one falsifiable statement from the paper, checked against a
// fresh simulation run — the artifact-evaluation self-check behind
// `fairsim -verify`. A check calls the run it needs and reads the run's
// typed output, never a figure's human-readable notes.
type Claim struct {
	Name  string
	Text  string // the paper's claim, paraphrased
	Check func(Config) (bool, string, error)
}

// Claims returns the paper's checkable claims in presentation order.
func Claims() []Claim {
	return []Claim{
		{
			Name: "incast-inversion",
			Text: "Sec. III-E: under default HPCC, incast flows that begin last finish first",
			Check: func(cfg Config) (bool, string, error) {
				outs, err := paperRun("hpcc", 16).run(cfg)
				if err != nil {
					return false, "", err
				}
				finish := outs[defaultVariant].startFinish.Y // in start order
				first, last := finish[0], finish[len(finish)-1]
				return last < first,
					fmt.Sprintf("first-started finishes %.0f us, last-started %.0f us", first, last), nil
			},
		},
		{
			Name: "vaisf-convergence-hpcc",
			Text: "Sec. VI-B: HPCC VAI SF converges to fairness much faster than default",
			Check: func(cfg Config) (bool, string, error) {
				return convergenceClaim(cfg, paperRun("hpcc", 16), defaultVariant, vaisfVariant, 2)
			},
		},
		{
			Name: "vaisf-convergence-swift",
			Text: "Sec. VI-B: Swift VAI SF converges to fairness faster than default",
			Check: func(cfg Config) (bool, string, error) {
				return convergenceClaim(cfg, paperRun("swift", 16), defaultVariant, vaisfVariant, 1.5)
			},
		},
		{
			Name: "near-zero-queues",
			Text: "Sec. VI-B: HPCC with VAI SF still maintains near-zero steady queues",
			Check: func(cfg Config) (bool, string, error) {
				outs, err := paperRun("hpcc", 16).run(cfg)
				if err != nil {
					return false, "", err
				}
				def, vai := outs[defaultVariant].steadyQueueKB, outs[vaisfVariant].steadyQueueKB
				// "Near zero": within 5 KB of the default's steady queue.
				return vai < def+5,
					fmt.Sprintf("steady queue: default %.1f KB, VAI SF %.1f KB", def, vai), nil
			},
		},
		{
			Name: "tail-fct-halved",
			Text: "Abstract: the mechanisms reduce 99.9% tail FCT of long flows by ~2x",
			Check: func(cfg Config) (bool, string, error) {
				out, err := runFatTree(cfg, "mix", dcVariants)
				if err != nil {
					return false, "", err
				}
				h, s := out.improvement(dcHPCC, 99.9), out.improvement(dcSwift, 99.9)
				// At small scale the tail is noisy; require a clear
				// improvement for at least one protocol and no
				// regression for the other.
				ok := (h > 1.5 || s > 1.5) && h > 0.8 && s > 0.8
				return ok, fmt.Sprintf("improvement: HPCC %.2fx, Swift %.2fx", h, s), nil
			},
		},
		{
			Name: "median-unaffected",
			Text: "Sec. VI-B: VAI and SF have no significant repercussions on median FCT (HPCC)",
			Check: func(cfg Config) (bool, string, error) {
				out, err := runFatTree(cfg, "hadoop", dcVariants)
				if err != nil {
					return false, "", err
				}
				def, errDef := out.longSlowdown(dcHPCC, 50)
				vai, errVAI := out.longSlowdown(dcHPCC+1, 50)
				if errDef != nil || errVAI != nil {
					return false, "no >1MB flows", nil
				}
				return vai < def*1.5,
					fmt.Sprintf("median >1MB slowdown: default %.1fx, VAI SF %.1fx", def, vai), nil
			},
		},
		{
			Name: "fluid-model",
			Text: "Sec. IV-B: the fluid-model fairness gap is positive and then diminishes",
			Check: func(cfg Config) (bool, string, error) {
				res, err := Run("fig4", cfg)
				if err != nil {
					return false, "", err
				}
				y := res.Series[0].Y
				peak := 0.0
				for _, v := range y {
					if v > peak {
						peak = v
					}
				}
				ok := peak > 1 && y[len(y)-1] < peak/4
				return ok, fmt.Sprintf("peak %.2f bytes/ns, final %.4f", peak, y[len(y)-1]), nil
			},
		},
		{
			Name: "newflow-corner-case",
			Text: "Sec. V-A: VAI still improves fairness when a new flow meets high-dampener incumbents",
			Check: func(cfg Config) (bool, string, error) {
				outs, err := runNewFlow(cfg)
				if err != nil {
					return false, "", err
				}
				d, v := outs[0].settleUs, outs[1].settleUs
				if d < 0 || v < 0 {
					return false, fmt.Sprintf("no post-join convergence: default %.0f us, VAI SF %.0f us (-1 = never)", d, v), nil
				}
				return v < d, fmt.Sprintf("post-join convergence: default %.0f us, VAI SF %.0f us", d, v), nil
			},
		},
		{
			Name: "vaisf-convergence-timely",
			Text: "Generality: the mechanisms apply to other sender-side protocols; TIMELY VAI SF converges faster",
			Check: func(cfg Config) (bool, string, error) {
				return convergenceClaim(cfg, timelyRun, 0, 1, 1.1)
			},
		},
		{
			Name: "aicap-latency-fairness",
			Text: "Sec. V: a larger AI_Cap gives better fairness at the cost of higher latency",
			Check: func(cfg Config) (bool, string, error) {
				o, err := sweepAt(cfg, aiCapSweep, aiCaps, 10, 100, 500)
				if err != nil {
					return false, "", err
				}
				c10, c100 := o[0].convergeUs, o[1].convergeUs
				ok := c100 > 0 && c10 > 0 && c100*1.2 <= c10 && o[2].maxQueueKB >= o[0].maxQueueKB
				return ok, fmt.Sprintf("convergence: cap 10 %.0f us, cap 100 %.0f us; max queue: cap 10 %.0f KB, cap 500 %.0f KB",
					c10, c100, o[0].maxQueueKB, o[2].maxQueueKB), nil
			},
		},
		{
			Name: "sf-bandwidth-fairness",
			Text: "Sec. V: frequent sampling trades bandwidth for fairness; rare sampling drifts back to per-RTT speed",
			Check: func(cfg Config) (bool, string, error) {
				o, err := sweepAt(cfg, sfSweep, sfEvery, 5, 30, 120)
				if err != nil {
					return false, "", err
				}
				q5, q30 := o[0].maxQueueKB, o[1].maxQueueKB
				done5, done30 := slices.Max(o[0].startFinish.Y), slices.Max(o[1].startFinish.Y)
				c30, c120 := o[1].convergeUs, o[2].convergeUs
				ok := q5 < q30 && done5 > done30 && c30 > 0 && c120 > 0 && c30*1.15 <= c120
				return ok, fmt.Sprintf("max queue: s=5 %.0f KB, s=30 %.0f KB; last finish: s=5 %.0f us, s=30 %.0f us; "+
					"convergence: s=30 %.0f us, s=120 %.0f us", q5, q30, done5, done30, c30, c120), nil
			},
		},
		{
			Name: "dampener-protection",
			Text: "Sec. V: the dampener protects the feedback loop: weaker damping deepens the 96-1 queue, no faster",
			Check: func(cfg Config) (bool, string, error) {
				o, err := sweepAt(cfg, dampenerSweep, dampeners, 1, 128)
				if err != nil {
					return false, "", err
				}
				q1, q128 := o[0].maxQueueKB, o[1].maxQueueKB
				c1, c128 := o[0].convergeUs, o[1].convergeUs
				// Never converging (-1) is no faster.
				ok := q128 >= 1.5*q1 && (c128 < 0 || c1 > 0 && c128 >= c1)
				return ok, fmt.Sprintf("max queue: constant 1 %.0f KB, 128 %.0f KB; convergence: 1 %.0f us, 128 %.0f us",
					q1, q128, c1, c128), nil
			},
		},
	}
}

// convergenceClaim runs r and compares the convergence of its variants def
// and vai: VAI SF must converge factor times faster.
func convergenceClaim(cfg Config, r starRun, def, vai int, factor float64) (bool, string, error) {
	outs, err := r.run(cfg)
	if err != nil {
		return false, "", err
	}
	d, v := outs[def].convergeUs, outs[vai].convergeUs
	detail := fmt.Sprintf("convergence: default %.0f us, VAI SF %.0f us", d, v)
	if d <= 0 || v <= 0 {
		return false, detail, nil
	}
	return v*factor <= d, detail, nil
}

// sweepAt runs a sweep over values and returns its outputs at the values at.
func sweepAt(cfg Config, r starRun, values []float64, at ...float64) ([]*incastOut, error) {
	outs, err := r.run(cfg)
	if err != nil {
		return nil, err
	}
	picked := make([]*incastOut, len(at))
	for i, v := range at {
		picked[i] = outs[slices.Index(values, v)]
	}
	return picked, nil
}
