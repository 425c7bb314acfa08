package dctcp

import (
	"math"
	"math/rand"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

const (
	lineRate = 100e9
	baseRTT  = 5 * sim.Microsecond
	mtu      = 1000
)

func env() *cc.Env {
	return &cc.Env{
		LineRateBps: lineRate,
		BaseRTT:     baseRTT,
		MTU:         mtu,
		HopBps:      []float64{lineRate},
		Rand:        rand.New(rand.NewSource(2)),
	}
}

func TestInitLineRate(t *testing.T) {
	d := New(DefaultConfig())
	ctl := d.Init(env())
	if ctl.WindowBytes != cc.BDPBytes(lineRate, baseRTT) {
		t.Fatalf("initial window = %v, want BDP", ctl.WindowBytes)
	}
	if d.Alpha() != 1 {
		t.Fatalf("initial alpha = %v, want 1", d.Alpha())
	}
}

// feedWindow delivers one window of ACKs with the given fraction marked.
func feedWindow(d *DCTCP, acked *int64, markedFrac float64) {
	n := int(d.Cwnd())
	if n < 1 {
		n = 1
	}
	marked := int(markedFrac * float64(n))
	for i := 0; i < n; i++ {
		*acked += mtu
		d.OnAck(cc.Feedback{AckedBytes: *acked, SentBytes: *acked + int64(n)*mtu,
			NewlyAcked: mtu, ECE: i < marked})
	}
}

func TestAlphaTracksMarkingFraction(t *testing.T) {
	d := New(DefaultConfig())
	d.Init(env())
	var acked int64
	// Sustained 50% marking: alpha converges near 0.5.
	for i := 0; i < 200; i++ {
		feedWindow(d, &acked, 0.5)
	}
	if math.Abs(d.Alpha()-0.5) > 0.1 {
		t.Fatalf("alpha = %v after sustained 50%% marking, want ~0.5", d.Alpha())
	}
	// Marking stops: alpha decays toward 0.
	for i := 0; i < 300; i++ {
		feedWindow(d, &acked, 0)
	}
	if d.Alpha() > 0.05 {
		t.Fatalf("alpha = %v after marking stopped, want near 0", d.Alpha())
	}
}

func TestCutScalesWithAlpha(t *testing.T) {
	d := New(DefaultConfig())
	d.Init(env())
	var acked int64
	// Drive alpha low with mostly unmarked windows.
	for i := 0; i < 100; i++ {
		feedWindow(d, &acked, 0)
	}
	d.cwnd = 40
	alpha := d.Alpha()
	w0 := d.Cwnd()
	// One marked ACK: the cut is alpha/2, not 1/2.
	acked += mtu
	d.OnAck(cc.Feedback{AckedBytes: acked, SentBytes: acked + 40*mtu,
		NewlyAcked: mtu, ECE: true})
	want := w0 * (1 - alpha/2)
	if math.Abs(d.Cwnd()-want) > 1e-9 {
		t.Fatalf("cwnd after mild-congestion cut = %v, want %v", d.Cwnd(), want)
	}
	if d.Cwnd() < w0*0.9 {
		t.Fatalf("mild congestion should cut gently, got %v from %v", d.Cwnd(), w0)
	}
}

func TestOneCutPerWindow(t *testing.T) {
	d := New(DefaultConfig())
	d.Init(env())
	d.cwnd = 20
	var acked int64
	acked += mtu
	d.OnAck(cc.Feedback{AckedBytes: acked, SentBytes: acked + 20*mtu,
		NewlyAcked: mtu, ECE: true})
	after := d.Cwnd()
	// More marked ACKs inside the same window must not cut again.
	for i := 0; i < 10; i++ {
		acked += mtu
		d.OnAck(cc.Feedback{AckedBytes: acked, SentBytes: acked + 20*mtu,
			NewlyAcked: mtu, ECE: true})
	}
	if d.Cwnd() != after {
		t.Fatalf("window cut twice in one RTT: %v -> %v", after, d.Cwnd())
	}
}

func TestGrowthOnCleanAcks(t *testing.T) {
	d := New(DefaultConfig())
	d.Init(env())
	d.cwnd = 10
	w0 := d.Cwnd()
	var acked int64 = mtu
	d.OnAck(cc.Feedback{AckedBytes: acked, SentBytes: acked + 10*mtu, NewlyAcked: mtu})
	want := w0 + 1/w0
	if math.Abs(d.Cwnd()-want) > 1e-9 {
		t.Fatalf("cwnd = %v, want %v (+1/cwnd per acked packet)", d.Cwnd(), want)
	}
}

func TestCwndBounds(t *testing.T) {
	d := New(DefaultConfig())
	d.Init(env())
	var acked int64
	for i := 0; i < 500; i++ {
		feedWindow(d, &acked, 1)
	}
	if d.Cwnd() < 0.1 {
		t.Fatalf("cwnd %v below floor", d.Cwnd())
	}
	for i := 0; i < 50_000; i++ {
		feedWindow(d, &acked, 0)
	}
	if d.Cwnd() > d.maxCwnd {
		t.Fatalf("cwnd %v above line-rate cap", d.Cwnd())
	}
}

func TestRecommendedK(t *testing.T) {
	// 100G, 5us RTT: BDP 62.5KB -> K ~ 13KB.
	k := RecommendedK(lineRate, baseRTT)
	if k < 9_000 || k > 20_000 {
		t.Fatalf("K = %d, want ~13KB", k)
	}
	red := MarkingAt(k)
	if red.PMax != 1 || red.KMaxBytes != red.KMinBytes+1 {
		t.Fatalf("step marking misconfigured: %+v", red)
	}
}
