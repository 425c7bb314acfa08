package swift

import (
	"math"
	"math/rand"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/core"
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
		Rand:        rand.New(rand.NewSource(7)),
	}
}

func TestInitStartsAtLineRate(t *testing.T) {
	s := New(DefaultConfig(50))
	ctl := s.Init(env())
	bdp := cc.BDPBytes(lineRate, baseRTT)
	if ctl.WindowBytes != bdp {
		t.Fatalf("initial window = %v bytes, want BDP %v", ctl.WindowBytes, bdp)
	}
	if ctl.RateBps != lineRate {
		t.Fatalf("initial rate = %v, want line rate", ctl.RateBps)
	}
}

func TestMdfEquation(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	// Eq. (1): mdf = max(1 - 0.8*(delay-target)/delay, 0.5).
	target := 10 * sim.Microsecond
	cases := []struct {
		delay sim.Time
		want  float64
	}{
		{10 * sim.Microsecond, 1},                      // at target: no decrease
		{5 * sim.Microsecond, 1},                       // below target
		{12500 * sim.Nanosecond, 1 - 0.8*2500.0/12500}, // mild: 0.84
		{20 * sim.Microsecond, 1 - 0.8*10000.0/20000},  // 0.6
		{100 * sim.Microsecond, 0.5},                   // floor at max_mdf
		{1000 * sim.Microsecond, 0.5},                  // deep congestion still 0.5
	}
	for _, c := range cases {
		if got := s.mdf(c.delay, target); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("mdf(%v) = %v, want %v", c.delay, got, c.want)
		}
	}
}

func TestTargetDelayTopologyScaling(t *testing.T) {
	s := New(DefaultConfig(0)) // no FBS
	e := env()
	e.HopBps = make([]float64, 5) // max fat-tree path
	s.Init(e)
	want := 5*sim.Microsecond + 5*2*sim.Microsecond
	if got := s.targetDelay(100); got != want {
		t.Fatalf("target at 5 hops = %v, want %v", got, want)
	}
}

// TestZeroFBSIsOff: a zero FBSMaxCwnd is no FBS, so the target is the
// topology-scaled base whatever the window; VAISFConfig runs that way.
func TestZeroFBSIsOff(t *testing.T) {
	cfg := VAISFConfig(4 * sim.Microsecond)
	if cfg.FBSMaxCwnd != 0 {
		t.Fatalf("VAISFConfig FBSMaxCwnd = %v, want 0", cfg.FBSMaxCwnd)
	}
	s := New(cfg)
	s.Init(env())
	want := baseTarget + perHop
	for _, w := range []float64{0.1, 4, 50} {
		if got := s.targetDelay(w); got != want {
			t.Fatalf("target at window %v = %v, want %v with FBS off", w, got, want)
		}
	}
}

func TestFBSRaisesTargetForSmallWindows(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	big := s.targetDelay(50)   // at max scaling window: no extra
	mid := s.targetDelay(4)    // small window: extra target
	tiny := s.targetDelay(0.1) // at min window: full range extra
	if !(tiny > mid && mid > big) {
		t.Fatalf("FBS not monotonic: tiny=%v mid=%v big=%v", tiny, mid, big)
	}
	if tiny-big != 4*sim.Microsecond {
		t.Fatalf("full FBS range = %v, want 4us", tiny-big)
	}
	if mid-big <= 0 || mid-big >= 4*sim.Microsecond {
		t.Fatalf("mid FBS extra = %v, want in (0, 4us)", mid-big)
	}
}

func TestDecreaseOncePerRTT(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	delay := 100 * sim.Microsecond // deep congestion: mdf = 0.5
	now := 1 * sim.Millisecond
	var acked int64
	ack := func(at sim.Time) {
		acked += mtu
		s.OnAck(cc.Feedback{Now: at, RTT: delay, AckedBytes: acked,
			SentBytes: acked + 50*mtu, NewlyAcked: mtu})
	}
	w0 := s.Cwnd()
	ack(now)
	w1 := s.Cwnd()
	if math.Abs(w1-w0*0.5) > 1e-9 {
		t.Fatalf("first decrease: %v -> %v, want halved", w0, w1)
	}
	// More congested ACKs within the same RTT: no further decrease.
	for i := 1; i < 10; i++ {
		ack(now + sim.Time(i)*sim.Microsecond)
	}
	if s.Cwnd() != w1 {
		t.Fatalf("window decreased again within an RTT: %v -> %v", w1, s.Cwnd())
	}
	// After a full (measured) RTT, decreases re-arm.
	ack(now + delay + sim.Microsecond)
	if s.Cwnd() >= w1 {
		t.Fatalf("window did not decrease after RTT passed: %v", s.Cwnd())
	}
}

func TestAdditiveIncreaseBelowTarget(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	s.cwnd = 10
	var acked int64
	w0 := s.Cwnd()
	acked += mtu
	s.OnAck(cc.Feedback{Now: 0, RTT: 1 * sim.Microsecond, AckedBytes: acked,
		SentBytes: acked + 10*mtu, NewlyAcked: mtu})
	// cwnd += ai * acked/cwnd with cwnd >= 1.
	ai := cc.BDPBytes(50e6, baseRTT) / mtu
	want := w0 + ai*1/w0
	if math.Abs(s.Cwnd()-want) > 1e-9 {
		t.Fatalf("cwnd = %v, want %v", s.Cwnd(), want)
	}
}

func TestSubPacketWindowPaced(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	s.cwnd = 0.5
	ctl := s.control()
	if ctl.RateBps >= lineRate {
		t.Fatalf("sub-packet window must pace below line rate, got %v", ctl.RateBps)
	}
	want := 0.5 * mtu * 8 / baseRTT.Seconds()
	if math.Abs(ctl.RateBps-want) > 1 {
		t.Fatalf("paced rate = %v, want %v", ctl.RateBps, want)
	}
}

func TestCwndBounds(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	var acked int64
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		acked += mtu
		now += 80 * sim.Nanosecond
		rtt := 500 * sim.Microsecond // brutal congestion
		s.OnAck(cc.Feedback{Now: now, RTT: rtt, AckedBytes: acked,
			SentBytes: acked + mtu, NewlyAcked: mtu})
		if s.Cwnd() < minCwnd-1e-12 || s.Cwnd() > s.maxCwnd+1e-12 {
			t.Fatalf("cwnd %v out of [%v, %v]", s.Cwnd(), minCwnd, s.maxCwnd)
		}
	}
	// Idle link: grow, but never past line rate.
	for i := 0; i < 200000; i++ {
		acked += mtu
		now += 80 * sim.Nanosecond
		s.OnAck(cc.Feedback{Now: now, RTT: 1 * sim.Microsecond, AckedBytes: acked,
			SentBytes: acked + mtu, NewlyAcked: mtu})
	}
	if s.Cwnd() > s.maxCwnd {
		t.Fatalf("cwnd %v exceeds line-rate window %v", s.Cwnd(), s.maxCwnd)
	}
}

func TestSFDecreasesEveryNAcks(t *testing.T) {
	cfg := VAISFConfig(4 * sim.Microsecond)
	cfg.VAI = core.VAIConfig{} // isolate SF
	cfg.SFEvery = 10
	s := New(cfg)
	s.Init(env())
	var acked int64
	now := sim.Time(0)
	refs := []float64{s.ref}
	for i := 0; i < 40; i++ {
		acked += mtu
		now += 80 * sim.Nanosecond
		s.OnAck(cc.Feedback{Now: now, RTT: 200 * sim.Microsecond, AckedBytes: acked,
			SentBytes: acked + 100*mtu, NewlyAcked: mtu})
		if s.ref != refs[len(refs)-1] {
			refs = append(refs, s.ref)
			if (i+1)%10 != 0 {
				t.Fatalf("reference changed at ACK %d, want multiples of 10", i+1)
			}
		}
	}
	if len(refs) != 5 { // initial + 4 sampler updates
		t.Fatalf("reference updated %d times in 40 ACKs with s=10, want 4", len(refs)-1)
	}
	// Each update under deep congestion roughly halves the reference
	// (mdf floor 0.5) plus the always-on AI.
	for i := 1; i < len(refs); i++ {
		if refs[i] >= refs[i-1] {
			t.Fatalf("reference did not decrease: %v", refs)
		}
	}
}

func TestSFAlwaysAppliesAI(t *testing.T) {
	// Sec. V-B: with SF, AI applies even while decreasing, so the window
	// after a decrease is ref*mdf + AI, not ref*mdf.
	cfg := VAISFConfig(4 * sim.Microsecond)
	cfg.VAI = core.VAIConfig{}
	cfg.SFEvery = 1 // every ACK updates the reference
	s := New(cfg)
	s.Init(env())
	ref0 := s.ref
	s.OnAck(cc.Feedback{Now: 0, RTT: 1 * sim.Second, AckedBytes: mtu,
		SentBytes: 2 * mtu, NewlyAcked: mtu})
	want := ref0*0.5 + s.aiPkts
	if math.Abs(s.ref-want) > 1e-9 {
		t.Fatalf("ref = %v, want ref*mdf + AI = %v", s.ref, want)
	}
}

func TestVAISFTokenThreshIncludesTarget(t *testing.T) {
	cfg := VAISFConfig(4 * sim.Microsecond)
	s := New(cfg)
	s.Init(env())
	// Threshold = 4us min-BDP delay + (5us base + 1 hop * 2us) target.
	want := float64(4*sim.Microsecond + 7*sim.Microsecond)
	// Probe via OnRTTEnd behaviour: a delay just below the threshold must
	// mint no tokens; just above must mint.
	vai := s.att.VAI()
	vai.OnRTTEnd(want-1, false)
	if vai.Bank() != 0 {
		t.Fatalf("bank = %v, want 0 below threshold", vai.Bank())
	}
	vai.OnRTTEnd(want+float64(30*sim.Nanosecond), false)
	if vai.Bank() == 0 {
		t.Fatal("bank empty above threshold")
	}
}

func TestVAISFConvergesFasterFromUnfairStart(t *testing.T) {
	// Two flows on one 100G link, one starting at line rate and one at
	// half: the VAI SF pair should close the rate gap in fewer RTT rounds
	// than default Swift. The coupled model is ACK-clocked: per RTT round
	// each flow receives one ACK per window packet (flows with more
	// bandwidth get more ACKs — the effect Sampling Frequency exploits),
	// and both see the same deterministic delay derived from the shared
	// queue (sum of windows above BDP).
	run := func(cfg Config) int {
		a, b := New(cfg), New(cfg)
		a.Init(env())
		b.Init(env())
		b.cwnd, b.ref = a.maxCwnd/2, a.maxCwnd/2
		var ackedA, ackedB int64
		now := sim.Time(0)
		bdp := cc.BDPBytes(lineRate, baseRTT) / mtu
		feedRTT := func(s *Swift, acked *int64, delay sim.Time) {
			n := int(s.Cwnd())
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				*acked += mtu
				s.OnAck(cc.Feedback{Now: now, RTT: delay, AckedBytes: *acked,
					SentBytes: *acked + int64(s.Cwnd()*mtu), NewlyAcked: mtu})
				now += 10 * sim.Nanosecond
			}
		}
		for round := 0; round < 3000; round++ {
			over := (a.Cwnd() + b.Cwnd()) - bdp
			delay := baseRTT
			if over > 0 {
				delay += sim.Time(over * mtu * 8 / lineRate * 1e12)
			}
			feedRTT(a, &ackedA, delay)
			feedRTT(b, &ackedB, delay)
			now += baseRTT
			if math.Abs(a.Cwnd()-b.Cwnd()) < 0.05*bdp {
				return round
			}
		}
		return 3000
	}
	// Compare against Swift without FBS to isolate the VAI+SF effect:
	// in this deterministic 2-flow model FBS is an artificially strong
	// equalizer (both flows see identical delays, so the per-window
	// target asymmetry dominates); the packet-level integration tests
	// compare against full default Swift.
	base := run(DefaultConfig(0))
	vaisf := run(VAISFConfig(4 * sim.Microsecond))
	if vaisf >= base {
		t.Fatalf("VAI SF converged in %d rounds, no-FBS default in %d; want faster", vaisf, base)
	}
}

func TestProbabilisticAcceptanceScalesWithWindow(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.Probabilistic = true
	s := New(cfg)
	s.Init(env())
	s.cwnd = s.maxCwnd / 4
	accept := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.useFeedback() {
			accept++
		}
	}
	frac := float64(accept) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("acceptance at quarter window = %v, want ~0.25", frac)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig(50)
		cfg.Probabilistic = true
		s := New(cfg)
		s.Init(env())
		var acked int64
		now := sim.Time(0)
		var ws []float64
		for i := 0; i < 500; i++ {
			acked += mtu
			now += 80 * sim.Nanosecond
			rtt := 5*sim.Microsecond + sim.Time(i%40)*sim.Microsecond
			ctl := s.OnAck(cc.Feedback{Now: now, RTT: rtt, AckedBytes: acked,
				SentBytes: acked + 20*mtu, NewlyAcked: mtu})
			ws = append(ws, ctl.WindowBytes)
		}
		return ws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at ack %d", i)
		}
	}
}

func TestHyperAIEngagesAfterCleanRTTs(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.HyperAI = true
	s := New(cfg)
	s.Init(env())
	s.cwnd = 5
	var acked int64
	now := sim.Time(0)
	ack := func(rtt sim.Time) float64 {
		before := s.Cwnd()
		acked += mtu
		now += sim.Microsecond
		s.OnAck(cc.Feedback{Now: now, RTT: rtt, AckedBytes: acked,
			SentBytes: acked + 5*mtu, NewlyAcked: mtu})
		return s.Cwnd() - before
	}
	// Before haiAfter clean RTTs: plain AI steps.
	base := ack(1 * sim.Microsecond)
	// Burn through enough clean RTTs (marker passes every ~6 acks).
	for i := 0; i < 40; i++ {
		ack(1 * sim.Microsecond)
	}
	if s.cleanRTTs < haiAfter || s.hyperAI() != haiMult {
		t.Fatalf("after %d clean RTTs hyper AI is x%v, want x%v from %d on", s.cleanRTTs, s.hyperAI(), haiMult, haiAfter)
	}
	boosted := ack(1 * sim.Microsecond)
	// The boosted per-ACK gain is ~haiMult times the base gain, modulo
	// the 1/cwnd factor shifting as cwnd grows; require a clear jump.
	if boosted < 4*base {
		t.Fatalf("hyper AI step %v not well above base %v", boosted, base)
	}
	// Congestion resets the boost.
	ack(1 * sim.Second)
	for i := 0; i < 7; i++ {
		ack(1 * sim.Second) // congested RTTs zero the clean counter
	}
	if s.hyperAI() != 1 {
		t.Fatalf("hyper AI still engaged after congestion: %v", s.hyperAI())
	}
}

func TestHyperAIDisabledByDefault(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	s.cleanRTTs = 1000
	if s.hyperAI() != 1 {
		t.Fatal("hyper AI must be off unless HyperAI is set")
	}
}
