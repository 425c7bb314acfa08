package exp

import "fmt"

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
				outs, err := runPaperIncast(cfg, "hpcc", 16)
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
				return convergenceClaim(cfg, "hpcc", 2)
			},
		},
		{
			Name: "vaisf-convergence-swift",
			Text: "Sec. VI-B: Swift VAI SF converges to fairness faster than default",
			Check: func(cfg Config) (bool, string, error) {
				return convergenceClaim(cfg, "swift", 1.5)
			},
		},
		{
			Name: "near-zero-queues",
			Text: "Sec. VI-B: HPCC with VAI SF still maintains near-zero steady queues",
			Check: func(cfg Config) (bool, string, error) {
				outs, err := runPaperIncast(cfg, "hpcc", 16)
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
	}
}

func convergenceClaim(cfg Config, protocol string, factor float64) (bool, string, error) {
	outs, err := runPaperIncast(cfg, protocol, 16)
	if err != nil {
		return false, "", err
	}
	d, v := outs[defaultVariant].convergeUs, outs[vaisfVariant].convergeUs
	detail := fmt.Sprintf("convergence: default %.0f us, VAI SF %.0f us", d, v)
	if d <= 0 || v <= 0 {
		return false, detail, nil
	}
	return v*factor <= d, detail, nil
}
