package metrics

import (
	"math"
	"math/rand"
	"testing"

	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/stats"
)

// TestAccumulatorExactBitForBit: below the retained cap, the streamed
// percentile path must be the retained-slice path — identical floats, not
// merely close — for the percentiles every figure pipeline asks for.
func TestAccumulatorExactBitForBit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 5000)
	var a Accumulator
	for i := range xs {
		// Slowdown-shaped values: >= 1, heavy tail.
		xs[i] = 1 + math.Exp(r.NormFloat64()*2)
		a.Add(xs[i])
	}
	if !a.Exact() {
		t.Fatal("accumulator left the exact path below DefaultMaxExact")
	}
	if a.Retained() != len(xs) {
		t.Fatalf("retained = %d, want %d", a.Retained(), len(xs))
	}
	for _, p := range []float64{0, 50, 90, 99, 99.9, 100} {
		want := stats.Percentile(xs, p)
		if got := a.Percentile(p); got != want {
			t.Fatalf("p%v: streamed %v != retained %v (must be bit-for-bit)", p, got, want)
		}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if a.Sum() != sum || a.Count() != int64(len(xs)) {
		t.Fatalf("sum/count: %v/%d, want %v/%d", a.Sum(), a.Count(), sum, len(xs))
	}
}

// TestAccumulatorOverflow: past MaxExact the accumulator folds into the
// histogram, retention drops to zero, exact aggregates survive, and
// percentiles stay within a bucket's relative resolution.
func TestAccumulatorOverflow(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 20000
	a := Accumulator{MaxExact: 256}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 + 100*r.Float64()
		a.Add(xs[i])
	}
	if a.Exact() {
		t.Fatal("accumulator stayed exact past MaxExact")
	}
	if a.Retained() != 0 {
		t.Fatalf("retained = %d after overflow, want 0", a.Retained())
	}
	if a.Count() != n {
		t.Fatalf("count = %d, want %d", a.Count(), n)
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if a.Min() != lo || a.Max() != hi {
		t.Fatalf("min/max %v/%v, want %v/%v", a.Min(), a.Max(), lo, hi)
	}
	// Log-spaced buckets at 64/decade resolve ~3.7% relative error.
	for _, p := range []float64{10, 50, 90, 99} {
		want := stats.Percentile(xs, p)
		got := a.Percentile(p)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Fatalf("p%v: %v vs exact %v, rel err %.3f > 0.05", p, got, want, rel)
		}
	}
	if a.Percentile(0) < lo || a.Percentile(100) > hi {
		t.Fatal("histogram percentiles escaped the exact [min,max]")
	}
}

func TestAccumulatorEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile of empty accumulator did not panic")
		}
	}()
	var a Accumulator
	a.Percentile(50)
}

// TestClassCollectorStreams runs real flows in two RTT-ish classes and
// checks the collector's per-class aggregates against the retained-record
// pipeline, including the peak-retention gauge.
func TestClassCollectorStreams(t *testing.T) {
	eng, nw, _ := buildStar(5)
	// Class by destination parity of the flow ID.
	classOf := func(f *net.Flow) int { return f.Spec.ID % 2 }
	col := NewClassCollector([]string{"even", "odd"}, classOf, 0)
	col.Attach(nw)
	hosts := nw.Hosts()
	for i := 0; i < 4; i++ {
		nw.AddFlow(net.FlowSpec{ID: i + 1, Src: hosts[i].NodeID(),
			Dst: hosts[4].NodeID(), Size: int64(10_000 * (i + 1))}, rateAlgo(100e9))
	}
	eng.Run()
	if !nw.AllFinished() {
		t.Fatal("flows did not finish")
	}
	cls := col.Classes()
	if cls[0].Flows != 2 || cls[1].Flows != 2 {
		t.Fatalf("class flows = %d/%d, want 2/2", cls[0].Flows, cls[1].Flows)
	}
	// Streamed per-class percentiles must match the retained records
	// exactly (the exact path never overflowed here).
	for c := 0; c < 2; c++ {
		var fcts, slows []float64
		var bytes int64
		for _, r := range CollectFinished(nw) {
			if r.ID%2 != c {
				continue
			}
			fcts = append(fcts, r.FCT.Microseconds())
			slows = append(slows, r.Slowdown)
			bytes += r.Size
		}
		if cls[c].Bytes != bytes {
			t.Fatalf("class %d bytes = %d, want %d", c, cls[c].Bytes, bytes)
		}
		for _, p := range []float64{50, 99} {
			if got, want := cls[c].FCTUsec.Percentile(p), stats.Percentile(fcts, p); got != want {
				t.Fatalf("class %d FCT p%v: %v != %v", c, p, got, want)
			}
			if got, want := cls[c].Slowdown.Percentile(p), stats.Percentile(slows, p); got != want {
				t.Fatalf("class %d slowdown p%v: %v != %v", c, p, got, want)
			}
		}
	}
	// 4 flows x 2 accumulators of exact samples.
	if col.PeakRetained() != 8 {
		t.Fatalf("peak retained = %d, want 8", col.PeakRetained())
	}
}

// TestClassCollectorChainsCallback: Attach keeps an OnFlowFinish callback
// that was already installed.
func TestClassCollectorChainsCallback(t *testing.T) {
	eng, nw, _ := buildStar(2)
	called := 0
	nw.OnFlowFinish = func(*net.Flow) { called++ }
	col := NewClassCollector([]string{"only"}, func(*net.Flow) int { return 0 }, 0)
	col.Attach(nw)
	nw.AddFlow(net.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 10_000}, rateAlgo(100e9))
	eng.Run()
	if flows := col.Classes()[0].Flows; called != 1 || flows != 1 {
		t.Fatalf("chained callback called=%d collected=%d, want 1 and 1", called, flows)
	}
}

// TestClassCollectorBoundedRetention: with a small exact cap, retention
// peaks at the cap instead of growing with flow count — the streaming
// contract for multi-thousand-flow runs.
func TestClassCollectorBoundedRetention(t *testing.T) {
	eng, nw, _ := buildStar(3)
	col := NewClassCollector([]string{"only"}, func(*net.Flow) int { return 0 }, 16)
	col.Attach(nw)
	hosts := nw.Hosts()
	const n = 200
	for i := 0; i < n; i++ {
		nw.AddFlow(net.FlowSpec{ID: i + 1, Src: hosts[i%2].NodeID(),
			Dst: hosts[2].NodeID(), Size: 2000,
			Start: sim.Time(i) * 10 * sim.Microsecond}, rateAlgo(100e9))
	}
	eng.Run()
	if !nw.AllFinished() {
		t.Fatal("flows did not finish")
	}
	cls := col.Classes()
	if cls[0].Flows != n {
		t.Fatalf("flows = %d, want %d", cls[0].Flows, n)
	}
	// FCT + slowdown accumulators, 16 exact samples each: retention peaks
	// at the cap instead of growing with the flow count.
	if got := col.PeakRetained(); got > 32 {
		t.Fatalf("peak retained = %d, want <= 2 x cap (32)", got)
	}
	if cls[0].FCTUsec.Count() != n || cls[0].FCTUsec.Exact() {
		t.Fatalf("FCT accumulator: count=%d exact=%v, want %d/false",
			cls[0].FCTUsec.Count(), cls[0].FCTUsec.Exact(), n)
	}
}

// TestSampleJainClasses: two classes at deliberately unequal rates on one
// bottleneck-free star — intra-class fairness near 1 for both classes,
// aggregate index pulled below 1 by the cross-class rate gap.
func TestSampleJainClasses(t *testing.T) {
	eng, nw, _ := buildStar(5)
	hosts := nw.Hosts()
	// Flows 1,2 at 40G (class 0); flows 3,4 at 10G (class 1); distinct
	// receivers so nothing queues and rates hold exactly.
	nw.AddFlow(net.FlowSpec{ID: 1, Src: hosts[0].NodeID(), Dst: hosts[4].NodeID(),
		Size: 4_000_000}, rateAlgo(40e9))
	nw.AddFlow(net.FlowSpec{ID: 2, Src: hosts[1].NodeID(), Dst: hosts[4].NodeID(),
		Size: 4_000_000}, rateAlgo(40e9))
	nw.AddFlow(net.FlowSpec{ID: 3, Src: hosts[2].NodeID(), Dst: hosts[3].NodeID(),
		Size: 1_000_000}, rateAlgo(10e9))
	nw.AddFlow(net.FlowSpec{ID: 4, Src: hosts[3].NodeID(), Dst: hosts[2].NodeID(),
		Size: 1_000_000}, rateAlgo(10e9))
	classOf := func(f *net.Flow) int {
		if f.Spec.ID <= 2 {
			return 0
		}
		return 1
	}
	js := SampleJainClasses(nw, []string{"fast", "slow"}, classOf,
		10*sim.Microsecond, 0, 500*sim.Microsecond)
	eng.Run()
	if len(js.ByClass) != 2 {
		t.Fatalf("classes = %d, want 2", len(js.ByClass))
	}
	for c, s := range js.ByClass {
		if len(s.Points) == 0 {
			t.Fatalf("class %d recorded no samples", c)
		}
		for _, p := range s.Points {
			if p.V < 0.99 {
				t.Fatalf("class %d intra-class Jain dipped to %v; equal-rate flows must stay ~1", c, p.V)
			}
		}
	}
	// While all four run, aggregate fairness over {40,40,10,10} is
	// (100)^2/(4*3400) = 0.735...
	sawMixed := false
	for _, p := range js.All.Points {
		if p.V < 0.8 {
			sawMixed = true
		}
	}
	if !sawMixed {
		t.Fatal("aggregate Jain never reflected the cross-class rate gap")
	}
}
