package exp

import (
	"fmt"

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
// heavy incast). All use the 16-1 or 96-1 incast on the star topology.

func hpccWithVAI(minBDP float64, mutate func(*hpcc.Config)) algoMaker {
	return func() cc.Algorithm {
		c := hpcc.VAISFConfig(minBDP)
		mutate(&c)
		return hpcc.New(c)
	}
}

func sweepExperiment(name, title string, senders int, values []float64,
	build func(minBDP float64, value float64) algoMaker) *Experiment {
	return single(name, title, func(cfg Config) (*Result, error) {
		minBDP := starMinBDP(senders)
		outs, err := par.MapErr(len(values), cfg.Workers, func(i int) (*incastOut, error) {
			v := variant{label: fmt.Sprintf("%s=%g", name, values[i]), make: build(minBDP, values[i])}
			return runIncast(cfg, v, paperIncast(senders), nil)
		})
		if err != nil {
			return nil, err
		}
		res := &Result{Name: name, Title: title,
			XLabel: "parameter value", YLabel: "metric"}
		conv := Series{Label: "convergence to Jain 0.95 (us)"}
		queue := Series{Label: "max queue (KB)"}
		finish := Series{Label: "last flow finish (us)"}
		for i, o := range outs {
			conv.Add(values[i], o.convergeUs)
			queue.Add(values[i], o.maxQueueKB)
			last := 0.0
			for _, y := range o.startFinish.Y {
				if y > last {
					last = y
				}
			}
			finish.Add(values[i], last)
			res.Notef("value %g: converge %.0f us, max queue %.0f KB, done %.0f us",
				values[i], o.convergeUs, o.maxQueueKB, last)
		}
		res.Series = append(res.Series, conv, queue, finish)
		return res, nil
	})
}

func init() {
	register(sweepExperiment("ablate-aicap",
		"AI_Cap sweep on 16-1 incast (HPCC VAI SF): latency vs fairness",
		16, []float64{10, 50, 100, 200, 500},
		func(minBDP, v float64) algoMaker {
			return hpccWithVAI(minBDP, func(c *hpcc.Config) { c.VAI.AICap = v })
		}))

	register(sweepExperiment("ablate-sf",
		"Sampling Frequency sweep on 16-1 incast (HPCC VAI SF): bandwidth vs fairness",
		16, []float64{5, 15, 30, 60, 120},
		func(minBDP, v float64) algoMaker {
			return hpccWithVAI(minBDP, func(c *hpcc.Config) { c.SFEvery = int(v) })
		}))

	register(sweepExperiment("ablate-dampener",
		"Dampener constant sweep on 96-1 incast (HPCC VAI SF): feedback protection",
		96, []float64{1, 4, 8, 32, 128},
		func(minBDP, v float64) algoMaker {
			return hpccWithVAI(minBDP, func(c *hpcc.Config) { c.VAI.DampenerConst = v })
		}))

	register(single("ablate-newflow", "New flow joins while incumbents hold a high dampener "+
		"(Sec. V-A corner case): VAI must still improve fairness", runNewFlowAblation))
}

// newFlowOut is one variant's run of the Sec. V-A scenario.
type newFlowOut struct {
	jain     Series
	settleUs float64 // when the smoothed Jain index, after the join, reaches 0.9 (-1 if never)
}

// runNewFlow reproduces the Sec. V-A scenario under default HPCC and HPCC
// VAI SF, in that order: two incumbent flows congest a link long enough to
// accumulate dampener, then a third joins with a fresh (zero) dampener.
func runNewFlow(cfg Config) ([]newFlowOut, error) {
	join := 500 * sim.Microsecond
	vs := []variant{hpccBaselines()[0], hpccVAISF(starParams(starMinBDP(3), hostRate))}
	outs := make([]newFlowOut, len(vs))
	for i, v := range vs {
		var jain *metrics.Series
		_, err := simulateSampled(cfg, v.label, 1, func(nw *net.Network) {
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
			return nil, err
		}
		// Convergence measured after the join only.
		all, post := Series{Label: v.label}, Series{}
		for _, p := range jain.Points {
			all.Add(p.T.Microseconds(), p.V)
			if p.T >= join {
				post.Add(p.T.Microseconds(), p.V)
			}
		}
		outs[i] = newFlowOut{jain: all, settleUs: smoothedReach(post, 5, 0.9)}
	}
	return outs, nil
}

// runNewFlowAblation plots the scenario's fairness over time. The paper
// reports VAI still improves fairness; the notes compare convergence
// after the join against default HPCC.
func runNewFlowAblation(cfg Config) (*Result, error) {
	outs, err := runNewFlow(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "ablate-newflow", Title: "New flow vs high-dampener incumbents",
		XLabel: "time (us)", YLabel: "Jain fairness index"}
	for _, o := range outs {
		res.Series = append(res.Series, o.jain)
		if o.settleUs >= 0 {
			res.Notef("%s: post-join smoothed Jain reaches 0.9 at %.0f us", o.jain.Label, o.settleUs)
		} else {
			res.Notef("%s: smoothed Jain never reached 0.9 after the join", o.jain.Label)
		}
	}
	return res, nil
}
