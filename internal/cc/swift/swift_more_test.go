package swift

import (
	"math"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestFBSCoefficients checks the closed-form alpha/beta derivation: the
// scaling term must be exactly fbsRange at fbsMinCwnd and exactly 0 at
// the max scaling window.
func TestFBSCoefficients(t *testing.T) {
	const maxCwnd = 50
	s := New(DefaultConfig(maxCwnd))
	s.Init(env())
	base := baseTarget + sim.Time(len(s.env.HopBps))*perHop
	atMin := s.targetDelay(fbsMinCwnd)
	atMax := s.targetDelay(maxCwnd)
	if atMin-base != fbsRange {
		t.Fatalf("FBS at min cwnd adds %v, want full range %v", atMin-base, fbsRange)
	}
	if atMax != base {
		t.Fatalf("FBS at max cwnd adds %v, want 0", atMax-base)
	}
	// Analytical midpoint: extra = alpha/sqrt(w) + beta.
	w := 10.0
	alpha := float64(fbsRange) / (1/math.Sqrt(fbsMinCwnd) - 1/math.Sqrt(maxCwnd))
	beta := -alpha / math.Sqrt(maxCwnd)
	want := base + sim.Time(alpha/math.Sqrt(w)+beta)
	if got := s.targetDelay(w); got != want {
		t.Fatalf("FBS at cwnd 10 = %v, want %v", got, want)
	}
}

// TestDecreaseRearmUsesMeasuredRTT: the once-per-RTT decrease gate uses
// the measured RTT, so under deep congestion (long RTTs) decreases space
// out accordingly.
func TestDecreaseRearmUsesMeasuredRTT(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	var acked int64
	congested := 50 * sim.Microsecond
	ack := func(at sim.Time) float64 {
		before := s.Cwnd()
		acked += mtu
		s.OnAck(cc.Feedback{Now: at, RTT: congested, AckedBytes: acked,
			SentBytes: acked + 50*mtu, NewlyAcked: mtu})
		return before - s.Cwnd()
	}
	if ack(sim.Millisecond) <= 0 {
		t.Fatal("first congested ACK must decrease")
	}
	// Just before one measured RTT later: no decrease.
	if ack(sim.Millisecond+congested-sim.Microsecond) > 0 {
		t.Fatal("decrease re-armed before one measured RTT")
	}
	if ack(sim.Millisecond+congested+sim.Microsecond) <= 0 {
		t.Fatal("decrease did not re-arm after one measured RTT")
	}
}

// TestSFReferenceNotBelowMin: SF-mode clamps keep the reference positive
// under endless deep congestion.
func TestSFReferenceNotBelowMin(t *testing.T) {
	cfg := VAISFConfig(4 * sim.Microsecond)
	s := New(cfg)
	s.Init(env())
	var acked int64
	for i := 0; i < 10_000; i++ {
		acked += mtu
		s.OnAck(cc.Feedback{Now: sim.Time(i) * sim.Microsecond, RTT: sim.Second,
			AckedBytes: acked, SentBytes: acked + mtu, NewlyAcked: mtu})
		if s.ref < minCwnd {
			t.Fatalf("reference %v below floor %v", s.ref, minCwnd)
		}
	}
}

// TestVAISpendsOnIncreaseRTTs: with SF+VAI, tokens drain even when the
// flow never decreases (the Sec. V-B always-AI change exists so "the
// tokens are always spent").
func TestVAISpendsOnIncreaseRTTs(t *testing.T) {
	cfg := VAISFConfig(4 * sim.Microsecond)
	s := New(cfg)
	s.Init(env())
	// Seed the bank directly through a congested RTT (above threshold).
	var acked int64
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		acked += mtu
		now += sim.Microsecond
		s.OnAck(cc.Feedback{Now: now, RTT: 60 * sim.Microsecond, AckedBytes: acked,
			SentBytes: acked + 5*mtu, NewlyAcked: mtu})
	}
	vai := s.att.VAI()
	if vai.Bank() == 0 {
		t.Fatal("bank empty after heavy congestion; cannot test draining")
	}
	// Congestion-free RTTs: the bank must drain via increase-side spends.
	for i := 0; i < 20_000 && vai.Bank() > 0; i++ {
		acked += mtu
		now += sim.Microsecond
		s.OnAck(cc.Feedback{Now: now, RTT: baseRTT, AckedBytes: acked,
			SentBytes: acked + 5*mtu, NewlyAcked: mtu})
	}
	if vai.Bank() != 0 {
		t.Fatalf("bank = %v after long congestion-free period, want 0", vai.Bank())
	}
}

// TestTargetUsesReferenceInSFMode: with SF the target delay derives from
// the reference window, not the transient per-ACK window.
func TestTargetUsesReferenceInSFMode(t *testing.T) {
	cfg := VAISFConfig(4 * sim.Microsecond)
	cfg.FBSMaxCwnd = 50
	s := New(cfg)
	s.Init(env())
	s.ref = 25
	s.cwnd = 1 // transient
	// Target computed in onAckSF uses s.ref; verify via targetDelay
	// directly at both and confirm they differ (so using the wrong one
	// would be detectable).
	if s.targetDelay(25) == s.targetDelay(1) {
		t.Skip("FBS range too small to distinguish")
	}
	var acked int64 = mtu
	s.OnAck(cc.Feedback{Now: sim.Microsecond, RTT: s.targetDelay(25) + sim.Nanosecond,
		AckedBytes: acked, SentBytes: acked + 30*mtu, NewlyAcked: mtu})
	// Delay just above target(ref): mdf < 1 so the per-ACK window shows a
	// decrease relative to ref + AI; if the implementation had used
	// target(cwnd=1) (much higher), mdf would be 1 and cwnd = ref + AI.
	if s.Cwnd() >= s.ref+s.aiPkts {
		t.Fatalf("cwnd %v suggests target was computed from the transient window", s.Cwnd())
	}
}

// TestAcksOfMultiplePacketsScaleAI: NewlyAcked above one MTU contributes
// proportionally to the additive increase.
func TestAcksOfMultiplePacketsScaleAI(t *testing.T) {
	s := New(DefaultConfig(50))
	s.Init(env())
	s.cwnd = 10
	w0 := s.Cwnd()
	s.OnAck(cc.Feedback{Now: 0, RTT: sim.Microsecond, AckedBytes: 3 * mtu,
		SentBytes: 13 * mtu, NewlyAcked: 3 * mtu})
	ai := cc.BDPBytes(50e6, baseRTT) / mtu
	want := w0 + ai*3/w0
	if math.Abs(s.Cwnd()-want) > 1e-9 {
		t.Fatalf("cwnd = %v, want %v for a 3-packet ACK", s.Cwnd(), want)
	}
}
