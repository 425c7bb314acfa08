package exp

import (
	"fmt"
	"slices"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/par"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// The ablations sweep the design parameters DESIGN.md calls out: AI_Cap
// (latency versus fairness), the Sampling Frequency s (bandwidth versus
// fairness), and the dampener constant (feedback-loop protection under
// heavy incast), each on the 16-1 or 96-1 incast and each read by a claim;
// probe the Sec. V-A corner case of a new flow joining high-dampener
// incumbents; and try the hyper-AI Swift extension the paper suggests for
// its Hadoop median-slowdown artifact.

// sweep is the star row of one ablation: HPCC VAI SF on the paper's incast
// at the given degree, once per value, with set applying the value to the
// protocol's configuration, and the claim checked on its outputs.
func sweep(name, title string, senders int, values []float64, set func(*hpcc.Config, float64), claim starCheck) starRun {
	variants := func(_ Config, p pathParams) []variant {
		vs := make([]variant, len(values))
		for i, x := range values {
			vs[i] = variant{label: fmt.Sprintf("%s=%g", name, x), make: func() cc.Algorithm {
				c := hpcc.VAISFConfig(p.minBDPBytes)
				set(&c, x)
				return hpcc.New(c)
			}}
		}
		return vs
	}
	show := func(_ Config, outs []*incastOut) *Result {
		res := &Result{XLabel: "parameter value", YLabel: "metric"}
		conv := Series{Label: "convergence to Jain 0.9 (us)"}
		queue := Series{Label: "max queue (KB)"}
		finish := Series{Label: "last flow finish (us)"}
		for i, o := range outs {
			last := slices.Max(o.startFinish.Y) // the last byte delivered, not the final ACK
			conv.Add(values[i], o.convergeUs)
			queue.Add(values[i], o.maxQueueKB)
			finish.Add(values[i], last)
			res.Notef("value %g: converge %.0f us, max queue %.0f KB, done %.0f us",
				values[i], o.convergeUs, o.maxQueueKB, last)
		}
		res.Series = append(res.Series, conv, queue, finish)
		return res
	}
	return starRun{shape: paperIncast(senders), variants: variants,
		views: []starView{{Figure{name, title}, show}}, checks: []starCheck{claim}}
}

// The sweeps' values: the sweeps are rows of incast.go's star table.
var (
	aiCaps    = []float64{10, 50, 100, 200, 500}
	sfEvery   = []float64{5, 15, 30, 60, 120}
	dampeners = []float64{1, 4, 8, 32, 128}
)

func init() {
	register(experiment(runNewFlow, []view[[]newFlowOut]{{Figure{"ablate-newflow",
		"New flow joins while incumbents hold a high dampener (Sec. V-A corner case): VAI must still improve fairness"},
		newFlowView}}, newFlowCornerCase))
	register(experiment(runSwiftHAI, []view[*dcOut]{{Figure{"ablate-swift-hai",
		"Swift hyper additive increase (Sec. VI-B suggestion): median FCT on Hadoop traffic, small fat-tree"},
		swiftHAIView}}))
}

// newFlowOut is one variant's run of the Sec. V-A scenario.
type newFlowOut struct {
	jain     Series
	settleUs float64 // when the smoothed Jain index, after the join, reaches 0.9 (-1 if never)
}

// runNewFlow reproduces the Sec. V-A scenario under default HPCC and HPCC
// VAI SF in parallel, results in that order: two incumbent flows congest a
// link long enough to accumulate dampener, then a third joins with a fresh
// (zero) dampener.
func runNewFlow(cfg Config) ([]newFlowOut, error) {
	join := 500 * sim.Microsecond
	vs := []variant{hpccBaselines()[0], hpccVAISF(starParams(3))}
	return par.MapErr(len(vs), cfg.Workers, func(i int) (newFlowOut, error) {
		v := vs[i]
		var jain *metrics.Series
		_, err := simulate(cfg, v.label, func(nw *net.Network) {
			st := topo.NewStar(nw, 4, hostRate, linkDelay)
			dst := st.Hosts[3].NodeID()
			const size = 8_000_000
			for _, spec := range []net.FlowSpec{
				{ID: 1, Src: st.Hosts[0].NodeID(), Dst: dst, Size: size, Start: 0},
				{ID: 2, Src: st.Hosts[1].NodeID(), Dst: dst, Size: size, Start: 0},
				{ID: 3, Src: st.Hosts[2].NodeID(), Dst: dst, Size: size / 2, Start: join},
			} {
				nw.AddFlow(spec, v.make())
			}
			jain = metrics.SampleJain(nw, v.label, 2*sim.Microsecond, 0, forever)
		})
		if err != nil {
			return newFlowOut{}, err
		}
		// Convergence measured after the join only.
		all, post := Series{Label: v.label}, Series{}
		for _, p := range jain.Points {
			all.Add(p.T.Microseconds(), p.V)
			if p.T >= join {
				post.Add(p.T.Microseconds(), p.V)
			}
		}
		return newFlowOut{jain: all, settleUs: smoothedReach(post, 5, 0.9)}, nil
	})
}

// newFlowView plots the scenario's fairness over time. The paper reports
// VAI still improves fairness; the notes compare convergence after the
// join against default HPCC.
func newFlowView(_ Config, outs []newFlowOut) *Result {
	res := &Result{XLabel: "time (us)", YLabel: "Jain fairness index"}
	for _, o := range outs {
		res.Series = append(res.Series, o.jain)
		if o.settleUs >= 0 {
			res.Notef("%s: post-join smoothed Jain reaches 0.9 at %.0f us", o.jain.Label, o.settleUs)
		} else {
			res.Notef("%s: smoothed Jain never reached 0.9 after the join", o.jain.Label)
		}
	}
	return res
}

// runSwiftHAI runs default Swift and Swift with hyper-AI on the
// small-scale Hadoop datacenter workload. The paper attributes Swift's
// poor Hadoop median to its single, constant additive increase recovering
// bandwidth slowly.
func runSwiftHAI(cfg Config) (*dcOut, error) {
	small := cfg
	small.Scale = "small"
	return runFatTree(small, "hadoop", func(p pathParams) []variant {
		return []variant{swiftBaselines(p)[0], swiftHAIVariant(p)}
	})
}

// swiftHAIView reports the two variants' median slowdowns by flow size.
func swiftHAIView(_ Config, out *dcOut) *Result {
	res := &Result{XLabel: "flow size (bytes)", YLabel: "median FCT slowdown"}
	for i, run := range out.runs {
		res.Series = append(res.Series, slowdownSeries(out.vs[i].label, run.records, 50, 50))
		if sd, err := metrics.SlowdownAbove(run.records, 100_000, 50); err == nil {
			res.Notef("%s: median slowdown of >100KB flows = %.2fx", out.vs[i].label, sd)
		}
	}
	return res
}
