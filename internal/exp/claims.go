package exp

import (
	"fmt"
	"slices"

	"faircc/internal/fluid"
)

// Claim is one falsifiable statement from the paper, checked on the run
// whose experiment declares it — the artifact-evaluation self-check behind
// `fairsim -verify`.
type Claim struct {
	Name string
	Text string // the paper's claim, paraphrased
}

// Verdict is a claim's outcome on one run: whether the run bears it out,
// and the numbers that say so.
type Verdict struct {
	Claim
	OK     bool
	Detail string
}

// Claims returns every registered claim, in the order of Experiments.
func Claims() (cs []Claim) {
	for _, e := range Experiments() {
		cs = append(cs, e.Claims...)
	}
	return cs
}

// Verify runs the experiment's simulations once, after validating cfg,
// and returns the verdict of each of its claims, in e.Claims order.
func (e *Experiment) Verify(cfg Config) ([]Verdict, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	_, verdicts, err := e.run(cfg)
	return verdicts, err
}

// The claims, each a check on the typed output of the run that registers
// it (incast.go, dc.go and ablate.go name them in their tables).
var (
	incastInversion = starCheck{Claim{"incast-inversion",
		"Sec. III-E: under default HPCC, incast flows that begin last finish first"},
		func(outs []*incastOut) (bool, string) {
			finish := outs[defaultVariant].startFinish.Y // in start order
			first, last := finish[0], finish[len(finish)-1]
			return last < first, fmt.Sprintf("first-started finishes %.0f us, last-started %.0f us", first, last)
		}}
	hpccConvergence = converges("vaisf-convergence-hpcc",
		"Sec. VI-B: HPCC VAI SF converges to fairness much faster than default", defaultVariant, vaisfVariant, 2)
	swiftConvergence = converges("vaisf-convergence-swift",
		"Sec. VI-B: Swift VAI SF converges to fairness faster than default", defaultVariant, vaisfVariant, 1.5)
	timelyConvergence = converges("vaisf-convergence-timely",
		"Generality: the mechanisms apply to other sender-side protocols; TIMELY VAI SF converges faster", 0, 1, 1.1)
	nearZeroQueues = starCheck{Claim{"near-zero-queues",
		"Sec. VI-B: HPCC with VAI SF still maintains near-zero steady queues"},
		func(outs []*incastOut) (bool, string) {
			def, vai := outs[defaultVariant].steadyQueueKB, outs[vaisfVariant].steadyQueueKB
			// "Near zero": within 5 KB of the default's steady queue.
			return vai < def+5, fmt.Sprintf("steady queue: default %.1f KB, VAI SF %.1f KB", def, vai)
		}}

	aiCapLatencyFairness = starCheck{Claim{"aicap-latency-fairness",
		"Sec. V: a larger AI_Cap gives better fairness at the cost of higher latency"},
		func(outs []*incastOut) (bool, string) {
			o := pick(outs, aiCaps, 10, 100, 500)
			c10, c100 := o[0].convergeUs, o[1].convergeUs
			ok := c100 > 0 && c10 > 0 && c100*1.2 <= c10 && o[2].maxQueueKB >= o[0].maxQueueKB
			return ok, fmt.Sprintf("convergence: cap 10 %.0f us, cap 100 %.0f us; max queue: cap 10 %.0f KB, cap 500 %.0f KB",
				c10, c100, o[0].maxQueueKB, o[2].maxQueueKB)
		}}
	sfBandwidthFairness = starCheck{Claim{"sf-bandwidth-fairness",
		"Sec. V: frequent sampling trades bandwidth for fairness; rare sampling drifts back to per-RTT speed"},
		func(outs []*incastOut) (bool, string) {
			o := pick(outs, sfEvery, 5, 30, 120)
			q5, q30 := o[0].maxQueueKB, o[1].maxQueueKB
			done5, done30 := slices.Max(o[0].startFinish.Y), slices.Max(o[1].startFinish.Y)
			c30, c120 := o[1].convergeUs, o[2].convergeUs
			ok := q5 < q30 && done5 > done30 && c30 > 0 && c120 > 0 && c30*1.15 <= c120
			return ok, fmt.Sprintf("max queue: s=5 %.0f KB, s=30 %.0f KB; last finish: s=5 %.0f us, s=30 %.0f us; "+
				"convergence: s=30 %.0f us, s=120 %.0f us", q5, q30, done5, done30, c30, c120)
		}}
	dampenerProtection = starCheck{Claim{"dampener-protection",
		"Sec. V: the dampener protects the feedback loop: weaker damping deepens the 96-1 queue, no faster"},
		func(outs []*incastOut) (bool, string) {
			o := pick(outs, dampeners, 1, 128)
			q1, q128 := o[0].maxQueueKB, o[1].maxQueueKB
			c1, c128 := o[0].convergeUs, o[1].convergeUs
			// Never converging (-1) is no faster.
			ok := q128 >= 1.5*q1 && (c128 < 0 || c1 > 0 && c128 >= c1)
			return ok, fmt.Sprintf("max queue: constant 1 %.0f KB, 128 %.0f KB; convergence: 1 %.0f us, 128 %.0f us",
				q1, q128, c1, c128)
		}}

	tailFCTHalved = check[*dcOut]{Claim{"tail-fct-halved",
		"Abstract: the mechanisms reduce 99.9% tail FCT of long flows by ~2x"},
		func(out *dcOut) (bool, string) {
			h, s := out.improvement(dcHPCC, 99.9), out.improvement(dcSwift, 99.9)
			// At small scale the tail is noisy; require a clear
			// improvement for at least one protocol and no regression for
			// the other.
			ok := (h > 1.5 || s > 1.5) && h > 0.8 && s > 0.8
			return ok, fmt.Sprintf("improvement: HPCC %.2fx, Swift %.2fx", h, s)
		}}
	medianUnaffected = check[*dcOut]{Claim{"median-unaffected",
		"Sec. VI-B: VAI and SF have no significant repercussions on median FCT (HPCC)"},
		func(out *dcOut) (bool, string) {
			def, errDef := out.longSlowdown(dcHPCC, 50)
			vai, errVAI := out.longSlowdown(dcHPCC+1, 50)
			if errDef != nil || errVAI != nil {
				return false, "no >1MB flows"
			}
			return vai < def*1.5, fmt.Sprintf("median >1MB slowdown: default %.1fx, VAI SF %.1fx", def, vai)
		}}

	fluidModel = check[[]fluid.Point]{Claim{"fluid-model",
		"Sec. IV-B: the fluid-model fairness gap is positive and then diminishes"},
		func(pts []fluid.Point) (bool, string) {
			peak, final := 0.0, pts[len(pts)-1].Gap
			for _, p := range pts {
				if p.Gap > peak {
					peak = p.Gap
				}
			}
			return peak > 1 && final < peak/4, fmt.Sprintf("peak %.2f bytes/ns, final %.4f", peak, final)
		}}

	newFlowCornerCase = check[[]newFlowOut]{Claim{"newflow-corner-case",
		"Sec. V-A: VAI still improves fairness when a new flow meets high-dampener incumbents"},
		func(outs []newFlowOut) (bool, string) {
			d, v := outs[0].settleUs, outs[1].settleUs
			if d < 0 || v < 0 {
				return false, fmt.Sprintf("no post-join convergence: default %.0f us, VAI SF %.0f us (-1 = never)", d, v)
			}
			return v < d, fmt.Sprintf("post-join convergence: default %.0f us, VAI SF %.0f us", d, v)
		}}
)

// converges is the check that VAI SF (output vai) converges to fairness
// factor times faster than the default (output def).
func converges(name, text string, def, vai int, factor float64) starCheck {
	return starCheck{Claim{name, text}, func(outs []*incastOut) (bool, string) {
		d, v := outs[def].convergeUs, outs[vai].convergeUs
		detail := fmt.Sprintf("convergence: default %.0f us, VAI SF %.0f us", d, v)
		if d <= 0 || v <= 0 {
			return false, detail
		}
		return v*factor <= d, detail
	}}
}

// pick returns a sweep's outputs at the values at, of the values it swept.
func pick(outs []*incastOut, values []float64, at ...float64) []*incastOut {
	picked := make([]*incastOut, len(at))
	for i, v := range at {
		picked[i] = outs[slices.Index(values, v)]
	}
	return picked
}
