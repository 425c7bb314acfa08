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
	// steadyQueueKB is the mean queue from 100 us after the last flow joined
	// (past the unavoidable line-rate join transients) to the end.
	steadyQueueKB float64
	lastFinish    sim.Time
	stats         net.NetworkStats
	records       []metrics.FlowRecord // per-flow completions (AddFlow order)
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
// collects the figure measurements. The variant's own setup (ECN marking
// for the DCQCN and DCTCP baselines) and then setup, each when non-nil,
// configure the network before flows are added (setup: finite buffers,
// loss or PFC for the experiments on such fabrics).
func runIncast(cfg Config, v variant, in incastShape, setup func(*net.Network, *topo.Star)) (*incastOut, error) {
	var jain, queue *metrics.Series
	nw, err := simulateSampled(cfg, v.label, 2, func(nw *net.Network) {
		st := topo.NewStar(nw, in.senders+1, hostRate, linkDelay)
		if v.setup != nil {
			v.setup(nw)
		}
		if setup != nil {
			setup(nw, st)
		}
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
		jain = metrics.SampleJain(nw, v.label, jainEvery, 0, forever)
		queue = metrics.SampleQueue(nw.Eng, st.HostPorts[in.senders], v.label, sim.Microsecond, 0, forever)
	})
	if err != nil {
		return nil, err
	}

	out := &incastOut{label: v.label, stats: nw.Stats(), records: metrics.CollectFinished(nw)}
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
	out.steadyQueueKB = meanFrom(out.queue, (in.lastStart() + 100*sim.Microsecond).Microseconds())
	out.startFinish.Label = v.label
	for _, p := range metrics.StartFinish(out.records) {
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

// meanFrom averages the samples of s at X >= from (0 if there are none).
func meanFrom(s Series, from float64) float64 {
	sum, n := 0.0, 0
	for i, x := range s.X {
		if x >= from {
			sum += s.Y[i]
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

// runIncastSet runs all variants in parallel on the same fabric setup (see
// runIncast); the first failing variant cancels the rest of the sweep.
func runIncastSet(cfg Config, vs []variant, in incastShape, setup func(*net.Network, *topo.Star)) ([]*incastOut, error) {
	return par.MapErr(len(vs), cfg.Workers, func(i int) (*incastOut, error) {
		return runIncast(cfg, vs[i], in, setup)
	})
}

// The variants of a paper incast run, in runPaperIncast's order. A figure
// selects some of them: the Sec. III figures (1-3) the three baselines,
// Figs. 5 and 6 all four, Figs. 8 and 9 the default against VAI SF.
const (
	defaultVariant = 0
	vaisfVariant   = 3
)

var (
	baselines       = []int{defaultVariant, 1, 2}
	allVariants     = []int{defaultVariant, 1, 2, vaisfVariant}
	defaultAndVAISF = []int{defaultVariant, vaisfVariant}
)

// runPaperIncast runs the paper's staggered incast at the given degree
// under one protocol's four variants: default, 1 Gb/s AI, probabilistic
// feedback and VAI SF. Every Jain, queue and start-finish figure of that
// protocol and degree is a view of these four simulations.
func runPaperIncast(cfg Config, protocol string, senders int) ([]*incastOut, error) {
	p := starParams(starMinBDP(senders), hostRate)
	vs := append(hpccBaselines(), hpccVAISF(p))
	if protocol == "swift" {
		vs = append(swiftBaselines(p), swiftVAISF(p))
	}
	return runIncastSet(cfg, vs, paperIncast(senders), nil)
}

// An incastFigure is one view of a paper incast run: the variants it
// shows and the measurement it plots of each.
type incastFigure struct {
	name, title string
	variants    []int
	view        func(Figure, []*incastOut) *Result
}

// incastExperiment is a paper incast run with the figures read off it.
func incastExperiment(protocol string, senders int, figs []incastFigure) *Experiment {
	e := &Experiment{}
	for _, f := range figs {
		e.Figures = append(e.Figures, Figure{f.name, f.title})
	}
	e.run = func(cfg Config) ([]*Result, error) {
		outs, err := runPaperIncast(cfg, protocol, senders)
		if err != nil {
			return nil, err
		}
		var results []*Result
		for i, f := range figs {
			shown := make([]*incastOut, len(f.variants))
			for j, v := range f.variants {
				shown[j] = outs[v]
			}
			results = append(results, f.view(e.Figures[i], shown))
		}
		return results, nil
	}
	return e
}

// jainView plots the Jain fairness index over time.
func jainView(f Figure, outs []*incastOut) *Result {
	res := &Result{Name: f.Name, Title: f.Title, XLabel: "time (us)", YLabel: "Jain fairness index"}
	for _, o := range outs {
		res.Series = append(res.Series, o.jain)
		res.Notef("%s: smoothed Jain reaches 0.9 at %.0f us (-1 = never)", o.label, o.convergeUs)
	}
	return res
}

// queueView plots the bottleneck queue depth over time.
func queueView(f Figure, outs []*incastOut) *Result {
	res := &Result{Name: f.Name, Title: f.Title, XLabel: "time (us)", YLabel: "queue depth (KB)"}
	for _, o := range outs {
		res.Series = append(res.Series, o.queue)
		res.Notef("%s: max queue %.0f KB, steady-state mean %.1f KB", o.label, o.maxQueueKB, o.steadyQueueKB)
	}
	return res
}

// startFinishView plots each flow's finish time against its start time.
func startFinishView(f Figure, outs []*incastOut) *Result {
	res := &Result{Name: f.Name, Title: f.Title, XLabel: "start time (us)", YLabel: "finish time (us)"}
	for _, o := range outs {
		res.Series = append(res.Series, o.startFinish)
		first, last := o.startFinish.Y[0], o.startFinish.Y[len(o.startFinish.Y)-1]
		res.Notef("%s: first-started finishes at %.0f us, last-started at %.0f us", o.label, first, last)
	}
	return res
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
	outs, err := runIncastSet(cfg, []variant{v}, in, nil)
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
		o.label, o.convergeUs, o.maxQueueKB, o.steadyQueueKB)
	res.Notef("%s: first-started finishes at %.0f us, last-started at %.0f us, last finish %.0f us", o.label,
		o.startFinish.Y[0], o.startFinish.Y[len(o.startFinish.Y)-1], o.lastFinish.Microseconds())
	return res, nil
}

func init() {
	register(single("incast", "One protocol variant on a configurable n-to-1 staggered incast", runIncastCustom))

	register(incastExperiment("hpcc", 16, []incastFigure{
		{"fig1a", "16-1 incast Jain index, HPCC baselines", baselines, jainView},
		{"fig1b", "16-1 incast queue depth, HPCC baselines", baselines, queueView},
		{"fig2", "16-1 staggered incast start vs finish, HPCC baselines", baselines, startFinishView},
		{"fig5a", "16-1 incast Jain index, HPCC with VAI SF", allVariants, jainView},
		{"fig5b", "16-1 incast queue depth, HPCC with VAI SF", allVariants, queueView},
		{"fig8", "16-1 incast start vs finish, HPCC default vs VAI SF", defaultAndVAISF, startFinishView}}))
	register(incastExperiment("swift", 16, []incastFigure{
		{"fig1c", "16-1 incast Jain index, Swift baselines", baselines, jainView},
		{"fig1d", "16-1 incast queue depth, Swift baselines", baselines, queueView},
		{"fig3", "16-1 staggered incast start vs finish, Swift baselines", baselines, startFinishView},
		{"fig6a", "16-1 incast Jain index, Swift with VAI SF", allVariants, jainView},
		{"fig6b", "16-1 incast queue depth, Swift with VAI SF", allVariants, queueView},
		{"fig9", "16-1 incast start vs finish, Swift default vs VAI SF", defaultAndVAISF, startFinishView}}))
	register(incastExperiment("hpcc", 96, []incastFigure{
		{"fig5c", "96-1 incast Jain index, HPCC with VAI SF", allVariants, jainView},
		{"fig5d", "96-1 incast queue depth, HPCC with VAI SF", allVariants, queueView}}))
	register(incastExperiment("swift", 96, []incastFigure{
		{"fig6c", "96-1 incast Jain index, Swift with VAI SF", allVariants, jainView},
		{"fig6d", "96-1 incast queue depth, Swift with VAI SF", allVariants, queueView}}))

	register(single("incast-dcqcn", "16-1 incast under DCQCN (Sec. II probabilistic-feedback reference)",
		func(cfg Config) (*Result, error) {
			outs, err := runIncastSet(cfg, []variant{dcqcnVariant()}, paperIncast(16), nil)
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
		}))
}
