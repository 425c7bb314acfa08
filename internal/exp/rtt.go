package exp

import (
	"fmt"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/par"
	"faircc/internal/sim"
	"faircc/internal/stats"
	"faircc/internal/topo"
)

// The rtt-unfairness experiment: fast-group and slow-group senders
// sharing one dumbbell bottleneck, the scenario the paper never evaluates
// (its fat-tree has uniform 1 us hops, so every flow sees the same base
// RTT). FaiRTT (arXiv:2403.19973) and the NS-3 BBR fairness study
// (arXiv:2410.22560) show RTT heterogeneity is where convergence-to-
// fairness claims go to die: AIMD-style control gives short-RTT flows
// more increase opportunities per second, so the fast class squeezes the
// slow class. Each variant reports the Jain index over time — aggregate
// and per RTT class — plus per-class FCT percentiles, with and without
// VAI/SF, so the mechanisms' fast-convergence claim is tested where
// classes differ, not just within one.

// rttSetup is one scale's scenario: the dumbbell, the per-sender flow
// schedule, and the goodput-sampling interval.
type rttSetup struct {
	dc       topo.DumbbellConfig
	flowSize int64
	rounds   int      // flows per sender
	gap      sim.Time // stagger between a sender's consecutive flows
}

// rttScale maps Config.Scale to a datacenter-heterogeneity scenario on the
// default dumbbell.
func rttScale(cfg Config) (rttSetup, error) {
	s := rttSetup{dc: topo.DefaultDumbbell()}
	switch cfg.Scale {
	case "small":
		s.flowSize, s.rounds, s.gap = 100_000, 2, 50*sim.Microsecond
	case "", "medium":
		s.flowSize, s.rounds, s.gap = 1_000_000, 4, 200*sim.Microsecond
	case "large", "full":
		s.flowSize, s.rounds, s.gap = 4_000_000, 8, 500*sim.Microsecond
	default:
		return s, fmt.Errorf("exp: unknown scale %q", cfg.Scale)
	}
	return s, nil
}

// rttParams sizes the protocol variants from the fast-class path, the
// dumbbell's shortest (FBS window 50, as on the star).
func rttParams(dc topo.DumbbellConfig) pathParams {
	return probeParams(50, func(nw *net.Network) (src, dst *net.Host) {
		d := topo.NewDumbbell(nw, dc)
		return d.Senders[0], d.Receivers[0]
	})
}

// rttOut is one variant's measurements.
type rttOut struct {
	label   string
	jain    *metrics.JainClassSeries
	records [][]metrics.FlowRecord // finished flows per RTT class, in Groups order
	rtts    []sim.Time             // each class's base RTT on the run's network
}

// runRTT runs one dumbbell scenario under one protocol variant.
func runRTT(cfg Config, v variant, s rttSetup) (*rttOut, error) {
	var jain *metrics.JainClassSeries
	var flowClass []int // flow ID - 1 -> its sender's RTT class
	var rtts []sim.Time
	nw, err := simulate(cfg, v.label, func(nw *net.Network) {
		d := topo.NewDumbbell(nw, s.dc)
		labels := make([]string, len(s.dc.Groups))
		for i, g := range s.dc.Groups {
			labels[i] = g.Name
		}

		id := 0
		for r := 0; r < s.rounds; r++ {
			for i, snd := range d.Senders {
				id++
				flowClass = append(flowClass, d.Class[i])
				nw.AddFlow(net.FlowSpec{
					ID:    id,
					Src:   snd.NodeID(),
					Dst:   d.Receivers[i].NodeID(),
					Size:  s.flowSize,
					Start: sim.Time(r) * s.gap,
				}, v.make())
			}
		}

		// Goodput sampling interval: a fair bottleneck share should deliver
		// ~10 packets per interval (the incast figures' rule), and at least
		// one slow-class RTT so the long-delay class is not quantized to its
		// burst arrivals.
		rtts = d.ClassBaseRTT(nw)
		slowRTT := rtts[len(rtts)-1]
		every := sim.Time(float64(len(d.Senders)) * float64(nw.MTU+nw.HeaderBytes) * 8 * 10 /
			s.dc.BottleneckBps * 1e12)
		if every < slowRTT {
			every = slowRTT
		}
		if every < 5*sim.Microsecond {
			every = 5 * sim.Microsecond
		}
		classOf := func(f *net.Flow) int { return flowClass[f.Spec.ID-1] }
		jain = metrics.SampleJainClasses(nw, labels, classOf, every, 0, forever)
	})
	if err != nil {
		return nil, err
	}
	out := &rttOut{label: v.label, jain: jain, records: make([][]metrics.FlowRecord, len(s.dc.Groups)), rtts: rtts}
	for _, r := range metrics.CollectFinished(nw) {
		c := flowClass[r.ID-1]
		out.records[c] = append(out.records[c], r)
	}
	return out, nil
}

// fctPercentiles returns the p50 and p99 of the records' completion times
// (microseconds) and of their slowdowns.
func fctPercentiles(records []metrics.FlowRecord) (fct50, fct99, slow50, slow99 float64) {
	fct, slow := make([]float64, len(records)), make([]float64, len(records))
	for i, r := range records {
		fct[i], slow[i] = r.FCT.Microseconds(), r.Slowdown
	}
	return stats.Percentile(fct, 50), stats.Percentile(fct, 99),
		stats.Percentile(slow, 50), stats.Percentile(slow, 99)
}

// meanTail averages the last half of a series (steady-state fairness).
func meanTail(s *metrics.Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	tail := s.Points[len(s.Points)/2:]
	for _, p := range tail {
		sum += p.V
	}
	return sum / float64(len(tail))
}

// runRTTUnfairness runs the scenario under the four variants Figs. 10-13
// compare, results in that order.
func runRTTUnfairness(cfg Config) ([]*rttOut, error) {
	s, err := rttScale(cfg)
	if err != nil {
		return nil, err
	}
	vs := dcVariants(rttParams(s.dc))
	return par.MapErr(len(vs), cfg.Workers, func(i int) (*rttOut, error) {
		return runRTT(cfg, vs[i], s)
	})
}

// rttView plots each variant's aggregate and per-class Jain curves, with
// per-class FCT percentiles in the notes.
func rttView(cfg Config, outs []*rttOut) *Result {
	s, _ := rttScale(cfg) // the run resolved it
	res := &Result{XLabel: "time (us)", YLabel: "Jain fairness index"}
	for i, g := range s.dc.Groups {
		res.Notef("class %s: %d senders, access %v, base RTT %v",
			g.Name, g.Count, g.AccessDelay, outs[0].rtts[i])
	}
	res.Notef("scale=%s flows/sender=%d size=%d bottleneck=%.0fGbps",
		cfg.Scale, s.rounds, s.flowSize, s.dc.BottleneckBps/1e9)

	for _, out := range outs {
		all := Series{Label: out.label}
		for _, pt := range out.jain.All.Points {
			all.Add(pt.T.Microseconds(), pt.V)
		}
		res.Series = append(res.Series, all)
		for _, cs := range out.jain.ByClass {
			sc := Series{Label: out.label + " " + cs.Label}
			for _, pt := range cs.Points {
				sc.Add(pt.T.Microseconds(), pt.V)
			}
			res.Series = append(res.Series, sc)
		}
		res.Notef("%s: steady-state Jain all=%.3f %s=%.3f %s=%.3f",
			out.label, meanTail(out.jain.All),
			out.jain.ByClass[0].Label, meanTail(out.jain.ByClass[0]),
			out.jain.ByClass[1].Label, meanTail(out.jain.ByClass[1]))
		for c, records := range out.records {
			if len(records) == 0 {
				continue
			}
			fct50, fct99, slow50, slow99 := fctPercentiles(records)
			res.Notef("%s %s: %d flows, FCT p50=%.1fus p99=%.1fus, slowdown p50=%.2fx p99=%.2fx",
				out.label, s.dc.Groups[c].Name, len(records), fct50, fct99, slow50, slow99)
		}
	}
	return res
}

func init() {
	register(experiment(runRTTUnfairness, []view[[]*rttOut]{{Figure{"rtt-unfairness",
		"Fairness across RTT classes: fast vs slow senders on one bottleneck"}, rttView}}))
}
