package hpcc

import (
	"math"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestAdditiveProbeStages verifies the MaxStage mechanism: below eta the
// window probes additively for MaxStage RTTs, then the MI branch engages
// even without congestion (so the reference re-anchors to the measured
// utilization).
func TestAdditiveProbeStages(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	// Deflate the window first so increases are visible.
	for i := 0; i < 300; i++ {
		feed(h, &acked, &sent, &tx, &ts, 200_000, 1.0)
	}
	// Idle link: each RTT adds one W_AI to the reference during the
	// probe stages.
	ref0 := h.Reference()
	stages := 0
	lastRef := ref0
	for i := 0; i < 63*7; i++ { // ~7 RTTs of ACKs
		feed(h, &acked, &sent, &tx, &ts, 0, 0.2)
		if h.Reference() != lastRef {
			stages++
			lastRef = h.Reference()
		}
	}
	if stages < 5 {
		t.Fatalf("observed %d reference updates in 7 idle RTTs, want >= 5", stages)
	}
	if h.Reference() <= ref0 {
		t.Fatalf("reference did not grow during probing: %v -> %v", ref0, h.Reference())
	}
}

// TestPerAckDoesNotCompound verifies the reference-window semantics:
// repeated congested ACKs within one RTT recompute W from the same Wc
// instead of compounding the decrease.
func TestPerAckDoesNotCompound(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	// Prime and pass the first RTT boundary.
	feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
	feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
	ref := h.Reference()
	var windows []float64
	for i := 0; i < 20; i++ { // same congestion, same RTT
		ctl := feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
		if h.Reference() != ref {
			t.Fatalf("reference moved within the RTT at ack %d", i)
		}
		windows = append(windows, ctl.WindowBytes)
	}
	// The per-ACK window tracks U against the constant reference: as the
	// EWMA converges the windows converge instead of collapsing
	// geometrically.
	first, last := windows[0], windows[len(windows)-1]
	if last < first/2 {
		t.Fatalf("per-ACK windows compounded: %v -> %v", first, last)
	}
}

// TestEWMATauClamped: a telemetry gap longer than the base RTT must weigh
// the new sample as one full RTT, not more.
func TestEWMATauClamped(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	h.OnAck(cc.Feedback{AckedBytes: mtu, SentBytes: 100 * mtu, NewlyAcked: mtu,
		Hops: hop(0, 0, 0)})
	u0 := h.Util()
	// Next sample 10 RTTs later: tau/T must clamp to 1, so U equals the
	// new sample exactly.
	gap := 10 * baseRTT
	tx := int64(sim.BytesOver(lineRate, gap) / 2) // 50% utilization
	h.OnAck(cc.Feedback{AckedBytes: 2 * mtu, SentBytes: 101 * mtu, NewlyAcked: mtu,
		Hops: hop(0, tx, gap)})
	if math.Abs(h.Util()-0.5) > 1e-9 {
		t.Fatalf("U = %v after clamped gap, want exactly the new sample 0.5 (u0 was %v)",
			h.Util(), u0)
	}
}

// TestMaxHopDominates: utilization comes from the most congested hop.
func TestMaxHopDominates(t *testing.T) {
	h := New(DefaultConfig())
	e := env()
	e.HopBps = []float64{lineRate, lineRate}
	h.Init(e)
	twoHops := func(q1, tx1, q2, tx2 int64, ts sim.Time) []cc.Telemetry {
		return []cc.Telemetry{
			{QueueBytes: q1, TxBytes: tx1, TS: ts},
			{QueueBytes: q2, TxBytes: tx2, TS: ts},
		}
	}
	h.OnAck(cc.Feedback{AckedBytes: mtu, SentBytes: 100 * mtu, NewlyAcked: mtu,
		Hops: twoHops(0, 0, 0, 0, 0)})
	// Hop 1 idle, hop 2 saturated with a deep queue. Two samples so the
	// min(qlen, qlen_prev) de-noising admits the standing queue.
	dt := baseRTT
	busy := int64(sim.BytesOver(lineRate, dt))
	h.OnAck(cc.Feedback{AckedBytes: 2 * mtu, SentBytes: 101 * mtu, NewlyAcked: mtu,
		Hops: twoHops(0, busy/10, 200_000, busy, dt)})
	h.OnAck(cc.Feedback{AckedBytes: 3 * mtu, SentBytes: 102 * mtu, NewlyAcked: mtu,
		Hops: twoHops(0, busy/10+busy/10, 200_000, 2*busy, 2*dt)})
	// The EWMA took the saturated hop: U ≈ qlen/(B*T) + 1 > 1.
	if h.Util() <= 1 {
		t.Fatalf("U = %v, want > 1 from the congested second hop", h.Util())
	}
}

// TestHopRatesFromEnv: each hop's utilization divides by its own rate from
// Env.HopBps, B_0 = 100G and B_1 = 400G, worked by hand. Both hops hold
// their queues across the two ACKs, one base RTT apart, so the EWMA takes
// the new sample whole (tau = T):
//
//	u_0 = 20 000*8/(100G*5us) + (31 250*8/5us)/100G = 0.32 + 0.5  = 0.82
//	u_1 = 100 000*8/(400G*5us) + (62 500*8/5us)/400G = 0.4 + 0.25 = 0.65
//
// and U = max = 0.82. Swapped rates read 2.6; either rate for both hops,
// 2.6 or 0.65.
func TestHopRatesFromEnv(t *testing.T) {
	h := New(DefaultConfig())
	e := env()
	e.HopBps = []float64{100e9, 400e9}
	h.Init(e)
	h.OnAck(cc.Feedback{AckedBytes: mtu, SentBytes: 100 * mtu, NewlyAcked: mtu,
		Hops: []cc.Telemetry{{QueueBytes: 20_000}, {QueueBytes: 100_000}}})
	h.OnAck(cc.Feedback{AckedBytes: 2 * mtu, SentBytes: 101 * mtu, NewlyAcked: mtu,
		Hops: []cc.Telemetry{
			{QueueBytes: 20_000, TxBytes: 31_250, TS: baseRTT},
			{QueueBytes: 100_000, TxBytes: 62_500, TS: baseRTT},
		}})
	if got := h.Util(); math.Abs(got-0.82) > 1e-12 {
		t.Fatalf("U = %v, want 0.82 from hop 0 at 100G (hop 1 at 400G reads 0.65)", got)
	}
}

// TestProbabilisticRateLimit: accepted reactions are at most one per
// window of acked data, so a burst of congested ACKs cannot compound.
func TestProbabilisticRateLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Probabilistic = true
	h := New(cfg)
	h.Init(env())
	// Force acceptance by keeping Wc at max (probability 1).
	var acked, sent, tx int64
	var ts sim.Time
	feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0) // prime
	refChanges := 0
	prev := h.Reference()
	for i := 0; i < 62; i++ { // one window of ACKs, all congested
		feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
		if h.Reference() != prev {
			refChanges++
			prev = h.Reference()
		}
	}
	if refChanges > 2 {
		t.Fatalf("reference decreased %d times within one window of data, want <= 2", refChanges)
	}
	if refChanges == 0 {
		t.Fatal("full-window flow never accepted feedback")
	}
}

// TestVariantPlumbing: the embedded Mechanisms select VAI and SF
// independently of each other.
func TestVariantPlumbing(t *testing.T) {
	c := VAISFConfig(50_000)
	c.SFEvery = 0
	h := New(c)
	h.Init(env())
	if h.att.VAI() == nil {
		t.Fatal("VAI-only config attached no VAI")
	}
	c = DefaultConfig()
	c.SFEvery = 30
	h = New(c)
	h.Init(env())
	if h.att.VAI() != nil {
		t.Fatal("SF-only config attached VAI")
	}
}

// TestWindowNeverBelowMTU even under catastrophic congestion.
func TestWindowFloor(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	for i := 0; i < 5000; i++ {
		ctl := feed(h, &acked, &sent, &tx, &ts, 10_000_000, 1.0)
		if ctl.WindowBytes < mtu {
			t.Fatalf("window %v below one MTU", ctl.WindowBytes)
		}
	}
}
