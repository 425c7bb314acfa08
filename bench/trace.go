package main

import (
	"math/bits"
	"time"

	"faircc/internal/cc"
)

// Tracing lives entirely in this package: spans are recorded around each
// call the benchmark makes into a layer, and no file outside bench/ has a
// hook. net and cc run inside Engine.Step callbacks, so from outside the
// only span boundaries available within a run are the step batches and a
// wrapper around the per-flow cc.Algorithm; the rest of the split of
// sim.run's self time comes from the CPU profile (profile.go).

// span is one traced interval. Times are nanoseconds since the tracer
// started; Parent indexes the enclosing span (-1 at the top).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced mode.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it and reports its duration. Spans are timed in
// both modes - their durations are the set-up and collection metrics -
// but kept only when tracing.
func (t *tracer) begin(name string) (end func() time.Duration) {
	start := time.Now()
	if t == nil {
		return func() time.Duration { return time.Since(start) }
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), Parent: parent})
	t.open = append(t.open, id)
	return func() time.Duration {
		d := time.Since(start)
		t.spans[id].End = t.spans[id].Start + d.Nanoseconds()
		t.open = t.open[:len(t.open)-1]
		return d
	}
}

// leaf records an already-timed child of the innermost open span.
func (t *tracer) leaf(name string, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: t.open[len(t.open)-1]})
}

// ccSampleMask times one OnAck call in 64: the clock reads cost about as
// much as the call itself, so timing every call would double the layer
// being measured.
const ccSampleMask = 63

// ccTrace accumulates the cc.on_ack span family of one variant on one
// shard: every call is counted, sampled calls are timed and kept as
// count + sum + histogram instead of one span each.
type ccTrace struct {
	Calls   int64     `json:"calls"`
	Sampled int64     `json:"sampled"`
	SumNs   int64     `json:"sum_ns"`
	Hist    [24]int64 `json:"hist_log2_ns"` // Hist[i] counts samples in [2^(i-1), 2^i) ns
}

func (c *ccTrace) add(o *ccTrace) {
	c.Calls += o.Calls
	c.Sampled += o.Sampled
	c.SumNs += o.SumNs
	for i := range c.Hist {
		c.Hist[i] += o.Hist[i]
	}
}

// estTotalNs scales the sampled time up to every call, net of the cost
// of the two clock reads around each sample.
func (c *ccTrace) estTotalNs(clockNs float64) float64 {
	if c.Sampled == 0 {
		return 0
	}
	per := float64(c.SumNs)/float64(c.Sampled) - clockNs
	if per < 0 {
		per = 0
	}
	return per * float64(c.Calls)
}

// tracedAlgo wraps a flow's algorithm in the traced run. It forwards
// every call unchanged, so the simulation is bit-identical with and
// without it (the digest check enforces that).
type tracedAlgo struct {
	cc.Algorithm
	t *ccTrace
}

func (a *tracedAlgo) OnAck(fb cc.Feedback) cc.Control {
	t := a.t
	t.Calls++
	if t.Calls&ccSampleMask != 0 {
		return a.Algorithm.OnAck(fb)
	}
	t0 := time.Now()
	ctl := a.Algorithm.OnAck(fb)
	d := time.Since(t0).Nanoseconds()
	t.Sampled++
	t.SumNs += d
	b := bits.Len64(uint64(d))
	if b >= len(t.Hist) {
		b = len(t.Hist) - 1
	}
	t.Hist[b]++
	return ctl
}

// clockOverheadNs is the median cost of a back-to-back time.Now /
// time.Since pair, which every sampled OnAck timing includes.
func clockOverheadNs() float64 {
	xs := make([]float64, 1001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(xs)
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Run      string              `json:"run"` // shared by every span of the file
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Spans    []span              `json:"spans"`
	CCOnAck  map[string]*ccTrace `json:"cc_on_ack"` // per variant
	Shares   map[string]float64  `json:"cpu_share_pct"`
}
