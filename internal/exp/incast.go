package exp

import (
	"cmp"
	"math"
	"math/rand"
	"sort"

	"faircc/internal/cc/hpcc"
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

// customShape is the incast experiment's shape: the paper's 16-1 pattern
// with Config's Incast* fields folded in.
func customShape(cfg Config) incastShape {
	in := paperIncast(cmp.Or(cfg.IncastSenders, 16))
	in.size = cmp.Or(cfg.IncastFlowBytes, in.size)
	in.group = cmp.Or(cfg.IncastGroup, in.group)
	in.every = cmp.Or(cfg.IncastEvery, in.every)
	return in
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
	// steadyQueueKB and steadyQueueSDKB are the mean queue and its standard
	// deviation, the paper's oscillation, from 100 us after the last flow
	// joined (past the unavoidable line-rate join transients) to the end.
	steadyQueueKB, steadyQueueSDKB float64

	lastFinish sim.Time
	stats      net.NetworkStats
	records    []metrics.FlowRecord // per-flow completions (AddFlow order)
}

// runIncast runs one staggered n-to-1 incast under the given variant and
// collects the figure measurements. setup, when non-nil, configures the
// network before flows are added (finite buffers and loss for the runs on
// such fabrics).
func runIncast(cfg Config, v variant, in incastShape, setup fabric) (*incastOut, error) {
	var jain, queue *metrics.Series
	nw, err := simulate(cfg, v.label, func(nw *net.Network) {
		jain, queue = buildIncast(nw, v, in, setup, in.senders)
	})
	if err != nil {
		return nil, err
	}

	out := &incastOut{label: v.label, stats: nw.Stats(), records: metrics.CollectFinished(nw)}
	for i := range nw.NumFlows() {
		out.lastFinish = max(out.lastFinish, nw.Flow(i).FinishedAt)
	}
	for _, p := range jain.Points {
		out.jain.Add(p.T.Microseconds(), p.V)
	}
	out.jain.Label = v.label
	for _, p := range queue.Points {
		out.queue.Add(p.T.Microseconds(), p.V/1000) // KB, as the paper plots
		out.maxQueueKB = max(out.maxQueueKB, p.V/1000)
	}
	out.queue.Label = v.label
	out.steadyQueueKB, out.steadyQueueSDKB = meanSDFrom(out.queue, (in.lastStart() + 100*sim.Microsecond).Microseconds())
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

// buildIncast builds the incast on a star of in.senders+1 hosts with the
// receiver at host recv (runIncast's is the last) and the senders at the
// others, in host order. It returns the Jain and the receiver-port queue
// samplers.
func buildIncast(nw *net.Network, v variant, in incastShape, setup fabric, recv int) (jain, queue *metrics.Series) {
	st := topo.NewStar(nw, in.senders+1, hostRate, linkDelay)
	if setup != nil {
		setup(nw, st)
	}
	var srcs []int
	for i, h := range st.Hosts {
		if i != recv {
			srcs = append(srcs, h.NodeID())
		}
	}
	dst := st.Hosts[recv].NodeID()
	for _, spec := range workload.StaggeredIncast(srcs, dst, in.size, in.group, in.every, 0) {
		nw.AddFlow(spec, v.make())
	}
	// Size the goodput-sampling interval so a fair share delivers ~10
	// packets per interval; shorter intervals quantize goodput to so few
	// packets that the index is dominated by sampling noise.
	jainEvery := max(sim.Time(float64(in.senders)*float64(nw.MTU+nw.HeaderBytes)*8*10/hostRate*1e12), 5*sim.Microsecond)
	jain = metrics.SampleJain(nw, v.label, jainEvery, 0, forever)
	queue = metrics.SampleQueue(nw.Eng, st.HostPorts[recv], v.label, sim.Microsecond, 0, forever)
	return jain, queue
}

// meanSDFrom returns the mean and the (population) standard deviation of
// the samples of s at X >= from, both 0 if there are none.
func meanSDFrom(s Series, from float64) (mean, sd float64) {
	i := sort.SearchFloat64s(s.X, from)
	ys := s.Y[i:]
	if len(ys) == 0 {
		return 0, 0
	}
	var sum, sumSq float64
	for _, y := range ys {
		sum += y
	}
	mean = sum / float64(len(ys))
	for _, y := range ys {
		d := y - mean
		sumSq += float64(d * d)
	}
	return mean, math.Sqrt(sumSq / float64(len(ys)))
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

// A fabric is a star switch other than the default lossless, unbounded
// one: it configures the network before flows are added.
type fabric func(*net.Network, *topo.Star)

// lossyFabric is the lossy fabric Swift targets: finite switch buffers
// with tail drop and random wire loss on data and ACKs, which the senders
// recover by RTO and go-back-N. Its buffers are 150 KB, below the ~240 KB
// the unbounded 16-1 incast peaks at, so the buffer binds; its 5e-4 loss
// probability is a handful of losses per 16 MB incast wave.
func lossyFabric(nw *net.Network, st *topo.Star) {
	nw.WireLoss = func(r *rand.Rand, _ net.Kind, _ int, _ int64) bool { return r.Float64() < 5e-4 }
	for _, sp := range st.Switch.Ports() {
		sp.SetBuffer(150_000)
	}
}

// starView and starCheck read a star run's outputs, in variant order.
type (
	starView  = view[[]*incastOut]
	starCheck = check[[]*incastOut]
)

// starFigure is the view that shows the outputs at the indexes (nil: all
// of them) with show.
func starFigure(name, title string, outputs []int, show func(Config, []*incastOut) *Result) starView {
	return starView{Figure{name, title}, func(cfg Config, outs []*incastOut) *Result {
		shown := outs
		if outputs != nil {
			shown = make([]*incastOut, len(outputs))
			for j, k := range outputs {
				shown[j] = outs[k]
			}
		}
		return show(cfg, shown)
	}}
}

// starRun is one star experiment as data: an incast shape (zero: the
// incast experiment's, customShape), the protocol variants run on it, the
// fabric they run on (nil: the lossless, unbounded star), and the figures
// and claims read off the outputs.
type starRun struct {
	shape    incastShape
	variants func(Config, pathParams) []variant
	fabric   fabric
	views    []starView
	checks   []starCheck
}

// run runs every variant in parallel; the first failing variant cancels
// the rest of the experiment.
func (r starRun) run(cfg Config) ([]*incastOut, error) {
	in := r.shape
	if in == (incastShape{}) {
		in = customShape(cfg)
	}
	vs := r.variants(cfg, starParams(in.senders))
	return par.MapErr(len(vs), cfg.Workers, func(i int) (*incastOut, error) {
		return runIncast(cfg, vs[i], in, r.fabric)
	})
}

// The variants of a paper incast run, in paperRun's order. A figure
// selects some of them: the Sec. III figures (1-3) the three baselines,
// Figs. 5 and 6 all four, Figs. 8 and 9 the default against VAI SF.
const (
	defaultVariant = 0
	vaisfVariant   = 3
)

var (
	baselines       = []int{defaultVariant, 1, 2}
	defaultAndVAISF = []int{defaultVariant, vaisfVariant}
)

// paperRun is the paper's staggered incast at the given degree under one
// protocol's four variants: default, 1 Gb/s AI, probabilistic feedback and
// VAI SF. Every Jain, queue and start-finish figure of that protocol and
// degree is a view of these four simulations, and each claim on them a
// check.
func paperRun(protocol string, senders int, views []starView, checks ...starCheck) starRun {
	return starRun{shape: paperIncast(senders), views: views, checks: checks,
		variants: func(_ Config, p pathParams) []variant {
			if protocol == "swift" {
				return append(swiftBaselines(p), swiftVAISF(p))
			}
			return append(hpccBaselines(), hpccVAISF(p))
		}}
}

// jainView plots the Jain fairness index over time.
func jainView(_ Config, outs []*incastOut) *Result {
	res := &Result{XLabel: "time (us)", YLabel: "Jain fairness index"}
	for _, o := range outs {
		res.Series = append(res.Series, o.jain)
		res.Notef("%s: smoothed Jain reaches 0.9 at %.0f us (-1 = never); max queue %.0f KB",
			o.label, o.convergeUs, o.maxQueueKB)
	}
	return res
}

// queueView plots the bottleneck queue depth over time.
func queueView(_ Config, outs []*incastOut) *Result {
	res := &Result{XLabel: "time (us)", YLabel: "queue depth (KB)"}
	for _, o := range outs {
		res.Series = append(res.Series, o.queue)
		res.Notef("%s: max queue %.0f KB, steady-state mean %.1f KB, std dev %.1f KB",
			o.label, o.maxQueueKB, o.steadyQueueKB, o.steadyQueueSDKB)
	}
	return res
}

// startFinishView plots each flow's finish time against its start time.
func startFinishView(_ Config, outs []*incastOut) *Result {
	res := &Result{XLabel: "start time (us)", YLabel: "finish time (us)"}
	for _, o := range outs {
		res.Series = append(res.Series, o.startFinish)
		first, last := o.startFinish.Y[0], o.startFinish.Y[len(o.startFinish.Y)-1]
		res.Notef("%s: first-started finishes at %.0f us, last-started at %.0f us", o.label, first, last)
	}
	return res
}

// customView is the incast experiment's one figure: all three views the
// figures take of a run — fairness and bottleneck queue over time, and each
// flow's finish time against its start time — as the curves of one plot.
func customView(cfg Config, outs []*incastOut) *Result {
	in, o := customShape(cfg), outs[0]
	res := &Result{XLabel: "time (us)", YLabel: "metric"}
	jain, queue, sf := o.jain, o.queue, o.startFinish
	jain.Label, queue.Label, sf.Label = "Jain fairness index", "queue depth (KB)", "finish time (us) by start time"
	res.Series = append(res.Series, jain, queue, sf)
	res.Notef("%d-1 incast, %d B/flow, %d starting every %v", in.senders, in.size, in.group, in.every)
	res.Notef("%s: smoothed Jain reaches 0.9 at %.0f us (-1 = never); max queue %.0f KB, steady-state mean %.1f KB",
		o.label, o.convergeUs, o.maxQueueKB, o.steadyQueueKB)
	res.Notef("%s: first-started finishes at %.0f us, last-started at %.0f us, last finish %.0f us", o.label,
		sf.Y[0], sf.Y[len(sf.Y)-1], o.lastFinish.Microseconds())
	return res
}

// fabricView plots the bottleneck queue of runs on finite or lossy
// fabrics, noting how each fabric coped: drops by cause and recovery.
func fabricView(_ Config, outs []*incastOut) *Result {
	res := &Result{XLabel: "time (us)", YLabel: "bottleneck queue (KB)"}
	for _, o := range outs {
		res.Series = append(res.Series, o.queue)
		st := o.stats
		res.Notef("%s: %d drops (%d buffer, %d wire), %d retransmits, %d RTOs, %d dup ACKs; "+
			"max queue %.0f KB, converge %.0f us, last finish %.0f us",
			o.label, st.Drops(), st.BufferDrops, st.WireDrops, st.Retransmits, st.RTOFires, st.DupAcks,
			o.maxQueueKB, o.convergeUs, o.lastFinish.Microseconds())
	}
	return res
}

// Every star experiment is a row of this table.
var starRuns = []starRun{
	paperRun("hpcc", 16, []starView{
		starFigure("fig1a", "16-1 incast Jain index, HPCC baselines", baselines, jainView),
		starFigure("fig1b", "16-1 incast queue depth, HPCC baselines", baselines, queueView),
		starFigure("fig2", "16-1 staggered incast start vs finish, HPCC baselines", baselines, startFinishView),
		starFigure("fig5a", "16-1 incast Jain index, HPCC with VAI SF", nil, jainView),
		starFigure("fig5b", "16-1 incast queue depth, HPCC with VAI SF", nil, queueView),
		starFigure("fig8", "16-1 incast start vs finish, HPCC default vs VAI SF", defaultAndVAISF, startFinishView),
	}, incastInversion, hpccConvergence, nearZeroQueues),
	paperRun("swift", 16, []starView{
		starFigure("fig1c", "16-1 incast Jain index, Swift baselines", baselines, jainView),
		starFigure("fig1d", "16-1 incast queue depth, Swift baselines", baselines, queueView),
		starFigure("fig3", "16-1 staggered incast start vs finish, Swift baselines", baselines, startFinishView),
		starFigure("fig6a", "16-1 incast Jain index, Swift with VAI SF", nil, jainView),
		starFigure("fig6b", "16-1 incast queue depth, Swift with VAI SF", nil, queueView),
		starFigure("fig9", "16-1 incast start vs finish, Swift default vs VAI SF", defaultAndVAISF, startFinishView),
	}, swiftConvergence),
	paperRun("hpcc", 96, []starView{
		starFigure("fig5c", "96-1 incast Jain index, HPCC with VAI SF", nil, jainView),
		starFigure("fig5d", "96-1 incast queue depth, HPCC with VAI SF", nil, queueView),
	}),
	paperRun("swift", 96, []starView{
		starFigure("fig6c", "96-1 incast Jain index, Swift with VAI SF", nil, jainView),
		starFigure("fig6d", "96-1 incast queue depth, Swift with VAI SF", nil, queueView),
	}),

	{views: []starView{starFigure("incast",
		"One protocol variant on a configurable n-to-1 staggered incast", nil, customView)},
		variants: func(cfg Config, p pathParams) []variant {
			return []variant{variantsByKey(p)[cmp.Or(cfg.IncastAlgo, "hpcc")]}
		}},
	{shape: paperIncast(16), variants: func(_ Config, p pathParams) []variant { return dcVariants(p) },
		fabric: lossyFabric,
		views: []starView{starFigure("incast-lossy", "16-1 incast on a lossy fabric: finite buffers, random "+
			"wire loss, RTO/go-back-N recovery", nil, fabricView)},
		checks: []starCheck{lossyFewerDrops}},
	// TIMELY with and without VAI SF on the paper's 16-1 incast: the
	// paper claims the mechanisms apply to "a multitude" of sender-side
	// protocols.
	{shape: paperIncast(16), variants: func(_ Config, p pathParams) []variant { return timelyVariants(p) },
		views: []starView{starFigure("incast-timely", "16-1 incast under TIMELY with and without VAI SF "+
			"(mechanism generality beyond HPCC/Swift)", nil, jainView)},
		checks: []starCheck{timelyConvergence}},
	sweep("ablate-aicap", "AI_Cap sweep on 16-1 incast (HPCC VAI SF): latency vs fairness",
		16, aiCaps, func(c *hpcc.Config, v float64) { c.VAI.AICap = v }, aiCapLatencyFairness),
	sweep("ablate-sf", "Sampling Frequency sweep on 16-1 incast (HPCC VAI SF): bandwidth vs fairness",
		16, sfEvery, func(c *hpcc.Config, v float64) { c.SFEvery = int(v) }, sfBandwidthFairness),
	sweep("ablate-dampener", "Dampener constant sweep on 96-1 incast (HPCC VAI SF): feedback protection",
		96, dampeners, func(c *hpcc.Config, v float64) { c.VAI.DampenerConst = v }, dampenerProtection),
}

func init() {
	for _, r := range starRuns {
		register(experiment(r.run, r.views, r.checks...))
	}
}
