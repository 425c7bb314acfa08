package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/stats"
)

type fixedAlgo struct{ ctl cc.Control }

func (a *fixedAlgo) Init(*cc.Env) cc.Control      { return a.ctl }
func (a *fixedAlgo) OnAck(cc.Feedback) cc.Control { return a.ctl }

func rateAlgo(bps float64) cc.Algorithm {
	return &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: bps}}
}

func buildStar(nHosts int) (*sim.Engine, *net.Network, *net.Switch) {
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	hosts := make([]*net.Host, nHosts)
	for i := range hosts {
		hosts[i] = nw.AddHost()
	}
	sw := nw.AddSwitch()
	for _, h := range hosts {
		sp, _ := nw.Connect(sw, h, 100e9, sim.Microsecond)
		sw.AddRoute(h.NodeID(), sp)
	}
	return eng, nw, sw
}

func TestSampleJainEqualFlows(t *testing.T) {
	eng, nw, _ := buildStar(3)
	// Two equal senders to separate receivers: no contention, equal
	// goodput, Jain stays ~1.
	nw.AddFlow(net.FlowSpec{ID: 1, Src: 0, Dst: 2, Size: 2_000_000}, rateAlgo(40e9))
	nw.AddFlow(net.FlowSpec{ID: 2, Src: 1, Dst: 2, Size: 2_000_000}, rateAlgo(40e9))
	s := SampleJain(nw, "j", 10*sim.Microsecond, 20*sim.Microsecond, sim.Millisecond)
	eng.Run()
	if len(s.Points) == 0 {
		t.Fatal("no samples")
	}
	for _, p := range s.Points {
		if p.V < 0.98 {
			t.Fatalf("Jain = %v at %v for equal flows, want ~1", p.V, p.T)
		}
	}
}

func TestSampleJainUnequalFlows(t *testing.T) {
	eng, nw, _ := buildStar(3)
	// A 4:1 goodput split: Jain = (5)^2/(2*17) ≈ 0.735.
	nw.AddFlow(net.FlowSpec{ID: 1, Src: 0, Dst: 2, Size: 4_000_000}, rateAlgo(40e9))
	nw.AddFlow(net.FlowSpec{ID: 2, Src: 1, Dst: 2, Size: 1_000_000}, rateAlgo(10e9))
	s := SampleJain(nw, "j", 20*sim.Microsecond, 40*sim.Microsecond, 700*sim.Microsecond)
	eng.Run()
	if len(s.Points) < 5 {
		t.Fatalf("too few samples: %d", len(s.Points))
	}
	want := 25.0 / 34
	mid := s.Points[len(s.Points)/2]
	if math.Abs(mid.V-want) > 0.05 {
		t.Fatalf("Jain = %v, want ~%v for a 4:1 split", mid.V, want)
	}
}

// TestSampleJainSamplersAgree: two samplers on one network, started before
// any flow exists and sampling at the same instants, give identical series,
// equal to a lone sampler's on the same traffic, including a flow added
// while they run. Each reads cumulative counts against its own previous
// reading, so neither takes the other's interval.
func TestSampleJainSamplersAgree(t *testing.T) {
	run := func(samplers int) []*Series {
		eng, nw, _ := buildStar(4)
		var ss []*Series
		for range samplers {
			ss = append(ss, SampleJain(nw, "j", 20*sim.Microsecond, 0, sim.Millisecond))
		}
		nw.AddFlow(net.FlowSpec{ID: 1, Src: 0, Dst: 3, Size: 4_000_000}, rateAlgo(40e9))
		nw.AddFlow(net.FlowSpec{ID: 2, Src: 1, Dst: 3, Size: 1_000_000}, rateAlgo(10e9))
		eng.RunUntil(100 * sim.Microsecond)
		nw.AddFlow(net.FlowSpec{ID: 3, Src: 2, Dst: 3, Size: 1_000_000, Start: 150 * sim.Microsecond}, rateAlgo(20e9))
		eng.Run()
		return ss
	}
	lone, pair := run(1)[0], run(2)
	if len(lone.Points) < 10 {
		t.Fatalf("too few samples: %d", len(lone.Points))
	}
	for i, s := range pair {
		if !reflect.DeepEqual(s.Points, lone.Points) {
			t.Errorf("sampler %d of two: %v, want the lone sampler's %v", i, s.Points, lone.Points)
		}
	}
}

func TestSampleQueue(t *testing.T) {
	eng, nw, sw := buildStar(3)
	nw.AddFlow(net.FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 1_000_000}, rateAlgo(100e9))
	nw.AddFlow(net.FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 1_000_000}, rateAlgo(100e9))
	s := SampleQueue(eng, sw.Ports()[0], "q", sim.Microsecond, 0, sim.Millisecond)
	eng.Run()
	peak := 0.0
	for _, p := range s.Points {
		if p.V > peak {
			peak = p.V
		}
	}
	// 2:1 overload while both flows last: queue must build substantially.
	if peak < 100_000 {
		t.Fatalf("sampled queue peak = %v, want > 100KB under 2x overload", peak)
	}
	if s.Points[0].V != 0 {
		t.Fatalf("queue at t=0 = %v, want 0", s.Points[0].V)
	}
}

func TestCollectFinishedAndSlowdown(t *testing.T) {
	eng, nw, _ := buildStar(2)
	nw.AddFlow(net.FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1_000_000}, rateAlgo(100e9))
	if got := CollectFinished(nw); len(got) != 0 {
		t.Fatalf("%d records before the flow ran, want 0", len(got))
	}
	eng.Run()
	records := CollectFinished(nw)
	if len(records) != 1 {
		t.Fatalf("records = %d, want 1", len(records))
	}
	r := records[0]
	// Uncontended line-rate flow: slowdown must be very close to 1.
	if r.Slowdown < 1 || r.Slowdown > 1.1 {
		t.Fatalf("uncontended slowdown = %v, want ~1", r.Slowdown)
	}
	if r.Size != 1_000_000 || r.FCT <= 0 {
		t.Fatalf("bad record: %+v", r)
	}
}

func TestBucketBySize(t *testing.T) {
	var recs []FlowRecord
	// 100 flows sized 1..100 KB; slowdown grows with size; flow of size i
	// KB has slowdown i.
	for i := 1; i <= 100; i++ {
		recs = append(recs, FlowRecord{ID: i, Size: int64(i * 1000), Slowdown: float64(i)})
	}
	buckets := BucketBySize(recs, 10, 99.9)
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d, want 10", len(buckets))
	}
	for i, b := range buckets {
		if b.Count != 10 {
			t.Fatalf("bucket %d count = %d, want 10", i, b.Count)
		}
		wantMax := int64((i + 1) * 10 * 1000)
		if b.MaxSize != wantMax {
			t.Fatalf("bucket %d max = %d, want %d", i, b.MaxSize, wantMax)
		}
		// p99.9 of 10 values ≈ the largest.
		if math.Abs(b.Slowdown-float64((i+1)*10)) > 0.5 {
			t.Fatalf("bucket %d slowdown = %v, want ~%d", i, b.Slowdown, (i+1)*10)
		}
	}
	// Monotone x.
	for i := 1; i < len(buckets); i++ {
		if buckets[i].MaxSize <= buckets[i-1].MaxSize {
			t.Fatal("bucket sizes not increasing")
		}
	}
	if got := BucketBySize(nil, 10, 50); got != nil {
		t.Fatal("empty records should give nil buckets")
	}
	// More buckets than records degrades gracefully.
	small := BucketBySize(recs[:3], 100, 50)
	if len(small) != 3 {
		t.Fatalf("tiny input buckets = %d, want 3", len(small))
	}
}

func TestSlowdownAbove(t *testing.T) {
	recs := []FlowRecord{
		{Size: 100, Slowdown: 1},
		{Size: 2_000_000, Slowdown: 30},
		{Size: 5_000_000, Slowdown: 40},
	}
	got, err := SlowdownAbove(recs, 1_000_000, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 35 {
		t.Fatalf("median long-flow slowdown = %v, want 35", got)
	}
	if _, err := SlowdownAbove(recs, 10_000_000, 50); err == nil {
		t.Fatal("expected error when no flows qualify")
	}
}

func TestStartFinish(t *testing.T) {
	recs := []FlowRecord{
		{ID: 3, Start: 20 * sim.Microsecond, FCT: 100 * sim.Microsecond},
		{ID: 2, Start: 0, FCT: 150 * sim.Microsecond},
		{ID: 1, Start: 0, FCT: 90 * sim.Microsecond},
	}
	// Flows starting together are ordered by ID, whatever order the records
	// come in (finish order and AddFlow order differ inside such a pair).
	for _, in := range [][]FlowRecord{recs, {recs[2], recs[1], recs[0]}, {recs[1], recs[0], recs[2]}} {
		pts := StartFinish(in)
		if len(pts) != 3 || pts[0].T != 0 || pts[1].T != 0 || pts[2].T != 20*sim.Microsecond {
			t.Fatalf("points not start-ordered: %+v", pts)
		}
		if pts[0].V != 90 || pts[1].V != 150 || pts[2].V != 120 {
			t.Fatalf("finish times wrong or ties not in ID order: %+v", pts)
		}
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

// TestPercentileSortedMatchesReference pins the sort-once fast path in
// BucketBySize and SlowdownAbove to the reference stats.Percentile on the
// same (unsorted) data: the optimization must be invisible in the output.
func TestPercentileSortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]FlowRecord, 997) // non-round count: uneven buckets
	for i := range recs {
		recs[i] = FlowRecord{
			ID:       i,
			Size:     int64(rng.Intn(5_000_000) + 1),
			Slowdown: 1 + rng.Float64()*40,
		}
	}
	for _, pct := range []float64{0, 25, 50, 95, 99.9, 100} {
		buckets := BucketBySize(recs, 100, pct)
		ref := append([]FlowRecord(nil), recs...)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].Size != ref[j].Size {
				return ref[i].Size < ref[j].Size
			}
			return ref[i].ID < ref[j].ID
		})
		for b := 0; b < 100; b++ {
			lo, hi := b*len(ref)/100, (b+1)*len(ref)/100
			if lo == hi {
				continue
			}
			var slow []float64
			for _, r := range ref[lo:hi] {
				slow = append(slow, r.Slowdown)
			}
			want := stats.Percentile(slow, pct)
			if got := buckets[b].Slowdown; got != want {
				t.Fatalf("pct=%v bucket %d: got %v, want reference %v", pct, b, got, want)
			}
		}

		var tail []float64
		for _, r := range recs {
			if r.Size > 2_000_000 {
				tail = append(tail, r.Slowdown)
			}
		}
		got, err := SlowdownAbove(recs, 2_000_000, pct)
		if err != nil {
			t.Fatalf("SlowdownAbove: %v", err)
		}
		if want := stats.Percentile(tail, pct); got != want {
			t.Fatalf("pct=%v SlowdownAbove: got %v, want reference %v", pct, got, want)
		}
	}
}
