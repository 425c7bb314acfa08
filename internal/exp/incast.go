package exp

import (
	"cmp"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/par"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

const (
	hostRate  = 100e9
	linkDelay = 1 * sim.Microsecond
)

// incastShape is one staggered n-to-1 incast: senders flows of size bytes
// to one receiver, group of them starting together every interval.
type incastShape struct {
	senders int
	size    int64
	group   int
	every   sim.Time
}

// paperIncast is the paper's pattern (Sec. III-D) at the given degree:
// 1 MB flows, two starting every 20 us.
func paperIncast(senders int) incastShape {
	return incastShape{senders: senders, size: 1_000_000, group: 2, every: 20 * sim.Microsecond}
}

// lastStart is when the last group of flows joins.
func (in incastShape) lastStart() sim.Time { return sim.Time((in.senders-1)/in.group) * in.every }

// incastOut is everything one incast run produces.
type incastOut struct {
	label       string
	jain        Series
	queue       Series
	startFinish Series
	convergeUs  float64 // time for smoothed Jain to reach 0.9 (-1 if never)
	maxQueueKB  float64
	lastFinish  sim.Time
	stats       net.NetworkStats
	records     []metrics.FlowRecord // per-flow completions (finish order)
}

// starMinBDP computes the paper's VAI token threshold for the star
// topology. The paper sets Token_Thresh to "the minimum BDP of the
// network, which is about 50KB" — a value rounded *down* from the exact
// 62.5 KB BDP of its 5 us, 100 Gb/s network. The margin matters: a
// joining flow dumps roughly one BDP of queue, and a threshold at or
// above that level mints tokens only for incumbent flows (whose packets
// queue on top of the dump and see more backlog), which is asymmetric and
// self-reinforcing. We apply the same 0.8x margin to the probed BDP.
func starMinBDP(senders int) float64 {
	nw := net.New(sim.NewEngine(), 0)
	st := topo.NewStar(nw, senders+1, hostRate, linkDelay)
	_, baseRTT, _, err := nw.ProbePath(net.FlowSpec{
		ID: 1, Src: st.Hosts[0].NodeID(), Dst: st.Hosts[senders].NodeID(), Size: 1})
	if err != nil {
		panic(err) // the star we just built is always probeable
	}
	return 0.8 * hostRate / 8 * baseRTT.Seconds()
}

// runIncast runs one staggered n-to-1 incast under the given variant and
// collects the figure measurements. setup, when non-nil, configures the
// network before flows are added (ECN marking for the DCQCN and DCTCP
// baselines, finite buffers and loss for the lossy experiments).
func runIncast(cfg Config, v variant, in incastShape, setup func(*net.Network, *topo.Star)) (*incastOut, error) {
	rec := &metrics.FCTRecorder{}
	var jain, queue *metrics.Series
	nw, err := simulate(cfg, v.label, func(nw *net.Network) {
		st := topo.NewStar(nw, in.senders+1, hostRate, linkDelay)
		if setup != nil {
			setup(nw, st)
		}
		rec.Attach(nw)
		srcs := make([]int, in.senders)
		for i := range srcs {
			srcs[i] = st.Hosts[i].NodeID()
		}
		dst := st.Hosts[in.senders].NodeID()
		for _, spec := range workload.StaggeredIncast(srcs, dst, in.size, in.group, in.every, 0) {
			nw.AddFlow(spec, v.make())
		}

		// Size the goodput-sampling interval so a fair share delivers ~10
		// packets per interval; shorter intervals quantize goodput to so few
		// packets that the index is dominated by sampling noise.
		jainEvery := sim.Time(float64(in.senders) * float64(nw.MTU+nw.HeaderBytes) * 8 * 10 / hostRate * 1e12)
		if jainEvery < 5*sim.Microsecond {
			jainEvery = 5 * sim.Microsecond
		}
		jain = metrics.SampleJain(nw, v.label, jainEvery, 0, horizon)
		queue = metrics.SampleQueue(nw.Eng, st.HostPorts[in.senders], v.label, sim.Microsecond, 0, horizon)
	})
	if err != nil {
		return nil, err
	}

	out := &incastOut{label: v.label, stats: nw.Stats(), records: rec.Records}
	for _, f := range nw.Flows() {
		if f.FinishedAt > out.lastFinish {
			out.lastFinish = f.FinishedAt
		}
	}
	for _, p := range jain.Points {
		out.jain.Add(p.T.Microseconds(), p.V)
	}
	out.jain.Label = v.label
	for _, p := range queue.Points {
		out.queue.Add(p.T.Microseconds(), p.V/1000) // KB, as the paper plots
		if kb := p.V / 1000; kb > out.maxQueueKB {
			out.maxQueueKB = kb
		}
	}
	out.queue.Label = v.label
	out.startFinish.Label = v.label
	cfg.notePeakFCT(len(rec.Records))
	for _, p := range metrics.StartFinish(rec.Records) {
		out.startFinish.Add(p.T.Microseconds(), p.V)
	}
	// Convergence is measured from the moment the last flow joins: before
	// that, the earliest (still equal) flows make the index trivially
	// high.
	var post Series
	for i, x := range out.jain.X {
		if x >= in.lastStart().Microseconds() {
			post.Add(x, out.jain.Y[i])
		}
	}
	out.convergeUs = smoothedReach(post, 5, 0.9)
	return out, nil
}

// steadyQueueKB averages the queue series from 100 us after the last flow
// joined (past the unavoidable line-rate join transients) to the end.
func steadyQueueKB(queue Series, in incastShape) float64 {
	from := (in.lastStart() + 100*sim.Microsecond).Microseconds()
	sum, n := 0.0, 0
	for i, x := range queue.X {
		if x >= from {
			sum += queue.Y[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// smoothedReach returns the first X at which the window-sample moving
// average of Y reaches threshold, or -1 if it never does. Goodput sampled
// over short intervals is quantized to whole packets, so the raw Jain
// index is noisy; the paper's "converges to an index of nearly 1 quickly"
// is a statement about the smoothed trend.
func smoothedReach(s Series, window int, threshold float64) float64 {
	sum := 0.0
	for i, y := range s.Y {
		sum += y
		n := window
		if i+1 < window {
			n = i + 1
		} else if i >= window {
			sum -= s.Y[i-window]
		}
		if sum/float64(n) >= threshold {
			return s.X[i]
		}
	}
	return -1
}

// dcqcnSetup configures RED marking and the CNP interval DCQCN needs.
func dcqcnSetup(nw *net.Network, st *topo.Star) {
	for _, p := range st.Switch.Ports() {
		p.SetRED(net.REDConfig{KMinBytes: 100_000, KMaxBytes: 400_000, PMax: 0.2})
	}
	nw.CNPInterval = 50 * sim.Microsecond
}

// runIncastSet runs all variants in parallel; the first failing variant
// cancels the rest of the sweep.
func runIncastSet(cfg Config, vs []variant, in incastShape) ([]*incastOut, error) {
	return par.MapErr(len(vs), cfg.Workers, func(i int) (*incastOut, error) {
		var setup func(*net.Network, *topo.Star)
		if vs[i].label == "DCQCN" {
			setup = dcqcnSetup
		}
		return runIncast(cfg, vs[i], in, setup)
	})
}

// incastFigure assembles a Jain-index or queue-depth figure over the given
// variants.
func incastFigure(name, title string, protocol string, withVAISF bool, senders int, metric string) *Experiment {
	return &Experiment{
		Name:  name,
		Title: title,
		Run: func(cfg Config) (*Result, error) {
			p := starParams(starMinBDP(senders), hostRate)
			var vs []variant
			if protocol == "hpcc" {
				vs = hpccBaselines()
				if withVAISF {
					vs = append(vs, hpccVAISF(p))
				}
			} else {
				vs = swiftBaselines(p)
				if withVAISF {
					vs = append(vs, swiftVAISF(p))
				}
			}
			outs, err := runIncastSet(cfg, vs, paperIncast(senders))
			if err != nil {
				return nil, err
			}
			res := &Result{Name: name, Title: title, XLabel: "time (us)"}
			for _, o := range outs {
				switch metric {
				case "jain":
					res.YLabel = "Jain fairness index"
					res.Series = append(res.Series, o.jain)
					res.Notef("%s: smoothed Jain reaches 0.9 at %.0f us (-1 = never)", o.label, o.convergeUs)
				case "queue":
					res.YLabel = "queue depth (KB)"
					res.Series = append(res.Series, o.queue)
					res.Notef("%s: max queue %.0f KB, steady-state mean %.1f KB",
						o.label, o.maxQueueKB, steadyQueueKB(o.queue, paperIncast(senders)))
				}
			}
			return res, nil
		},
	}
}

// startFinishFigure assembles a start-time-versus-finish-time figure.
func startFinishFigure(name, title, protocol string, variantLabels []string, senders int) *Experiment {
	return &Experiment{
		Name:  name,
		Title: title,
		Run: func(cfg Config) (*Result, error) {
			p := starParams(starMinBDP(senders), hostRate)
			var all []variant
			if protocol == "hpcc" {
				all = append(hpccBaselines(), hpccVAISF(p))
			} else {
				all = append(swiftBaselines(p), swiftVAISF(p))
			}
			var vs []variant
			for _, v := range all {
				for _, want := range variantLabels {
					if v.label == want {
						vs = append(vs, v)
					}
				}
			}
			outs, err := runIncastSet(cfg, vs, paperIncast(senders))
			if err != nil {
				return nil, err
			}
			res := &Result{Name: name, Title: title,
				XLabel: "start time (us)", YLabel: "finish time (us)"}
			for _, o := range outs {
				res.Series = append(res.Series, o.startFinish)
				first, last := o.startFinish.Y[0], o.startFinish.Y[len(o.startFinish.Y)-1]
				res.Notef("%s: first-started finishes at %.0f us, last-started at %.0f us",
					o.label, first, last)
			}
			return res, nil
		},
	}
}

// runIncastCustom is the incast experiment: one variant on an incast of
// the caller's shape (Config's Incast* fields), reporting all three views
// the figures take of such a run — fairness and bottleneck queue over
// time, and each flow's finish time against its start time.
func runIncastCustom(cfg Config) (*Result, error) {
	in := paperIncast(cmp.Or(cfg.IncastSenders, 16))
	in.size = cmp.Or(cfg.IncastFlowBytes, in.size)
	in.group = cmp.Or(cfg.IncastGroup, in.group)
	in.every = cmp.Or(cfg.IncastEvery, in.every)
	v := variantsByKey(starParams(starMinBDP(in.senders), hostRate))[cmp.Or(cfg.IncastAlgo, "hpcc")]
	outs, err := runIncastSet(cfg, []variant{v}, in)
	if err != nil {
		return nil, err
	}
	o := outs[0]
	res := &Result{Name: "incast", Title: "Configurable n-to-1 incast",
		XLabel: "time (us)", YLabel: "metric"}
	o.jain.Label = "Jain fairness index"
	o.queue.Label = "queue depth (KB)"
	o.startFinish.Label = "finish time (us) by start time"
	res.Series = append(res.Series, o.jain, o.queue, o.startFinish)
	res.Notef("%d-1 incast, %d B/flow, %d starting every %v", in.senders, in.size, in.group, in.every)
	res.Notef("%s: smoothed Jain reaches 0.9 at %.0f us (-1 = never); max queue %.0f KB, steady-state mean %.1f KB",
		o.label, o.convergeUs, o.maxQueueKB, steadyQueueKB(o.queue, in))
	res.Notef("%s: first-started finishes at %.0f us, last-started at %.0f us, last finish %.0f us", o.label,
		o.startFinish.Y[0], o.startFinish.Y[len(o.startFinish.Y)-1], o.lastFinish.Microseconds())
	return res, nil
}

func init() {
	register(&Experiment{
		Name:  "incast",
		Title: "One protocol variant on a configurable n-to-1 staggered incast",
		Run:   runIncastCustom,
	})
	register(incastFigure("fig1a", "16-1 incast Jain index, HPCC baselines", "hpcc", false, 16, "jain"))
	register(incastFigure("fig1b", "16-1 incast queue depth, HPCC baselines", "hpcc", false, 16, "queue"))
	register(incastFigure("fig1c", "16-1 incast Jain index, Swift baselines", "swift", false, 16, "jain"))
	register(incastFigure("fig1d", "16-1 incast queue depth, Swift baselines", "swift", false, 16, "queue"))

	register(startFinishFigure("fig2", "16-1 staggered incast start vs finish, HPCC baselines",
		"hpcc", []string{"HPCC", "HPCC 1Gbps", "HPCC Probabilistic"}, 16))
	register(startFinishFigure("fig3", "16-1 staggered incast start vs finish, Swift baselines",
		"swift", []string{"Swift", "Swift 1Gbps", "Swift Probabilistic"}, 16))

	register(incastFigure("fig5a", "16-1 incast Jain index, HPCC with VAI SF", "hpcc", true, 16, "jain"))
	register(incastFigure("fig5b", "16-1 incast queue depth, HPCC with VAI SF", "hpcc", true, 16, "queue"))
	register(incastFigure("fig5c", "96-1 incast Jain index, HPCC with VAI SF", "hpcc", true, 96, "jain"))
	register(incastFigure("fig5d", "96-1 incast queue depth, HPCC with VAI SF", "hpcc", true, 96, "queue"))
	register(incastFigure("fig6a", "16-1 incast Jain index, Swift with VAI SF", "swift", true, 16, "jain"))
	register(incastFigure("fig6b", "16-1 incast queue depth, Swift with VAI SF", "swift", true, 16, "queue"))
	register(incastFigure("fig6c", "96-1 incast Jain index, Swift with VAI SF", "swift", true, 96, "jain"))
	register(incastFigure("fig6d", "96-1 incast queue depth, Swift with VAI SF", "swift", true, 96, "queue"))

	register(startFinishFigure("fig8", "16-1 incast start vs finish, HPCC default vs VAI SF",
		"hpcc", []string{"HPCC", "HPCC VAI SF"}, 16))
	register(startFinishFigure("fig9", "16-1 incast start vs finish, Swift default vs VAI SF",
		"swift", []string{"Swift", "Swift VAI SF"}, 16))

	register(&Experiment{
		Name:  "incast-dcqcn",
		Title: "16-1 incast under DCQCN (Sec. II probabilistic-feedback reference)",
		Run: func(cfg Config) (*Result, error) {
			outs, err := runIncastSet(cfg, []variant{dcqcnVariant()}, paperIncast(16))
			if err != nil {
				return nil, err
			}
			res := &Result{Name: "incast-dcqcn", Title: "DCQCN 16-1 incast",
				XLabel: "time (us)", YLabel: "Jain fairness index"}
			o := outs[0]
			res.Series = append(res.Series, o.jain)
			res.Notef("DCQCN: smoothed Jain reaches 0.9 at %.0f us; max queue %.0f KB",
				o.convergeUs, o.maxQueueKB)
			return res, nil
		},
	})
}
