package hpcc

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
		Rand:        rand.New(rand.NewSource(42)),
	}
}

// hop builds a single-hop INT stack.
func hop(qlen, txBytes int64, ts sim.Time) []cc.Telemetry {
	return []cc.Telemetry{{QueueBytes: qlen, TxBytes: txBytes, TS: ts}}
}

func TestInitStartsAtLineRate(t *testing.T) {
	h := New(DefaultConfig())
	ctl := h.Init(env())
	bdp := cc.BDPBytes(lineRate, baseRTT) // 62500 bytes
	if ctl.WindowBytes != bdp {
		t.Fatalf("initial window = %v, want BDP %v", ctl.WindowBytes, bdp)
	}
	if math.Abs(ctl.RateBps-lineRate) > 1 {
		t.Fatalf("initial rate = %v, want line rate", ctl.RateBps)
	}
}

// feed one ACK with synthetic telemetry advancing tx at the given
// utilization fraction of line rate and a fixed queue.
func feed(h *HPCC, acked, sent *int64, tx *int64, ts *sim.Time, qlen int64, frac float64) cc.Control {
	dt := 80 * sim.Nanosecond // one MTU slot at 100G
	*ts += dt
	*tx += int64(frac * sim.BytesOver(lineRate, dt))
	*acked += mtu
	*sent += mtu
	return h.OnAck(cc.Feedback{
		Now:        *ts,
		RTT:        baseRTT,
		AckedBytes: *acked,
		SentBytes:  *sent + 60*mtu, // window's worth still in flight
		NewlyAcked: mtu,
		Hops:       hop(qlen, *tx, *ts),
	})
}

func TestDecreaseOnHighUtilization(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	// Saturated link with a deep queue: U ≈ 1 + q/(B*T) > eta.
	var last cc.Control
	for i := 0; i < 200; i++ {
		last = feed(h, &acked, &sent, &tx, &ts, 100_000, 1.0)
	}
	bdp := cc.BDPBytes(lineRate, baseRTT)
	if last.WindowBytes >= bdp*0.8 {
		t.Fatalf("window = %v after sustained congestion, want well below BDP %v",
			last.WindowBytes, bdp)
	}
	if h.Util() < 0.95 {
		t.Fatalf("U = %v, want >= eta under saturation", h.Util())
	}
}

func TestIncreaseWhenUnderutilized(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	// Drag the window down first.
	var acked, sent, tx int64
	var ts sim.Time
	for i := 0; i < 300; i++ {
		feed(h, &acked, &sent, &tx, &ts, 200_000, 1.0)
	}
	low := h.Window()
	// Now an idle link: zero queue, low tx rate.
	for i := 0; i < 300; i++ {
		feed(h, &acked, &sent, &tx, &ts, 0, 0.3)
	}
	if h.Window() <= low {
		t.Fatalf("window did not recover: %v -> %v", low, h.Window())
	}
}

func TestWindowBounds(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	bdp := cc.BDPBytes(lineRate, baseRTT)
	for i := 0; i < 2000; i++ {
		ctl := feed(h, &acked, &sent, &tx, &ts, 500_000, 1.0)
		if ctl.WindowBytes < mtu || ctl.WindowBytes > bdp {
			t.Fatalf("window %v out of [MTU, BDP]", ctl.WindowBytes)
		}
	}
	// And on a long idle stretch it must top out at BDP, not above.
	for i := 0; i < 2000; i++ {
		ctl := feed(h, &acked, &sent, &tx, &ts, 0, 0.1)
		if ctl.WindowBytes > bdp {
			t.Fatalf("window %v exceeds line-rate BDP %v", ctl.WindowBytes, bdp)
		}
	}
}

func TestReferenceUpdatesOncePerRTT(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	// Prime telemetry.
	feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
	// First ack after priming completes the initial RTT marker (acked >
	// 0), so the reference updates once; subsequent acks within the same
	// RTT must not move it.
	feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
	ref := h.Reference()
	for i := 0; i < 10; i++ { // still below the snd_nxt mark
		feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
		if h.Reference() != ref {
			t.Fatalf("reference moved within an RTT: %v -> %v", ref, h.Reference())
		}
	}
}

func TestSamplingFrequencyUpdatesReferencePerNAcks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SFEvery = 5
	h := New(cfg)
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0) // prime (tick 1)
	updates := 0
	prev := h.Reference()
	for i := 0; i < 20; i++ { // ticks 2..21: fires at 5,10,15,20
		feed(h, &acked, &sent, &tx, &ts, 150_000, 1.0)
		if h.Reference() != prev {
			updates++
			prev = h.Reference()
		}
	}
	if updates != 4 {
		t.Fatalf("reference updated %d times in 20 congested ACKs with SF=5, want 4", updates)
	}
}

func TestVAIRaisesAIUnderCongestion(t *testing.T) {
	cfg := VAISFConfig(50_000)
	cfgNoVAI := DefaultConfig()
	cfgNoVAI.SFEvery = 30

	run := func(c Config) float64 {
		h := New(c)
		h.Init(env())
		var acked, sent, tx int64
		var ts sim.Time
		// Sustained big queue (new flows joined), then measure recovery
		// speed on an idle link.
		for i := 0; i < 200; i++ {
			feed(h, &acked, &sent, &tx, &ts, 200_000, 1.0)
		}
		start := h.Window()
		for i := 0; i < 63; i++ { // one RTT of idle ACKs
			feed(h, &acked, &sent, &tx, &ts, 0, 0.2)
		}
		return h.Window() - start
	}
	gainVAI := run(cfg)
	gainBase := run(cfgNoVAI)
	if gainVAI <= gainBase {
		t.Fatalf("VAI recovery gain %v not above base %v", gainVAI, gainBase)
	}
}

func TestVAITokensExhaust(t *testing.T) {
	cfg := VAISFConfig(50_000)
	h := New(cfg)
	h.Init(env())
	var acked, sent, tx int64
	var ts sim.Time
	// One burst of congestion mints tokens…
	for i := 0; i < 100; i++ {
		feed(h, &acked, &sent, &tx, &ts, 200_000, 1.0)
	}
	// …then a long congestion-free period must drain the bank back to a
	// multiplier of 1 (steady-state AI equals the base AI).
	for i := 0; i < 5000; i++ {
		feed(h, &acked, &sent, &tx, &ts, 0, 0.2)
	}
	vai := h.att.VAI()
	if vai.Multiplier() != 1 {
		t.Fatalf("multiplier = %v after long idle, want 1", vai.Multiplier())
	}
	if vai.Bank() != 0 {
		t.Fatalf("bank = %v after long idle, want 0", vai.Bank())
	}
	if vai.Dampener() != 0 {
		t.Fatalf("dampener = %v after long idle, want 0", vai.Dampener())
	}
}

func TestProbabilisticSmallWindowIgnoresFeedback(t *testing.T) {
	// With Wc forced near zero, the acceptance probability Wc >= U*maxW is
	// tiny, so reference decreases are almost always skipped; with Wc at
	// maxW it is 1. We check both ends through the exported state.
	cfg := DefaultConfig()
	cfg.Probabilistic = true
	h := New(cfg)
	h.Init(env())
	accept, total := 0, 20000
	for i := 0; i < total; i++ {
		if h.useFeedback() {
			accept++
		}
	}
	if accept != total {
		t.Fatalf("full window accepted %d/%d, want all", accept, total)
	}
	h.wc = h.maxW / 2
	accept = 0
	for i := 0; i < total; i++ {
		if h.useFeedback() {
			accept++
		}
	}
	frac := float64(accept) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("half window acceptance = %v, want ~0.5", frac)
	}
	h.wc = 0
	for i := 0; i < total; i++ {
		if h.useFeedback() {
			// rand()%maxW can draw 0, accepting; anything more than a
			// handful would be wrong.
			accept++
		}
	}
}

func TestMeasureInflightMatchesFormula(t *testing.T) {
	h := New(DefaultConfig())
	h.Init(env())
	T := baseRTT.Seconds()
	// Prime with a known sample.
	h.OnAck(cc.Feedback{AckedBytes: mtu, SentBytes: 60 * mtu, NewlyAcked: mtu,
		Hops: hop(0, 0, 0)})
	u0 := h.Util()
	// Second sample: dt = 1us, tx = 12500 bytes => txRate = 100Gb/s,
	// qlen min(50KB, 0) = 0 → u' = 1.0, tau = 1us.
	h.OnAck(cc.Feedback{AckedBytes: 2 * mtu, SentBytes: 61 * mtu, NewlyAcked: mtu,
		Hops: hop(50_000, 12_500, 1*sim.Microsecond)})
	tau := (1 * sim.Microsecond).Seconds()
	want := (1-tau/T)*u0 + (tau/T)*1.0
	if math.Abs(h.Util()-want) > 1e-9 {
		t.Fatalf("U = %v, want %v", h.Util(), want)
	}
}

func TestVAISFConfigMatchesPaper(t *testing.T) {
	c := VAISFConfig(50_000)
	v := c.VAI
	if v.TokenThresh != 50_000 || v.AIDiv != 1000 || v.AICap != 100 || v.DampenerConst != 8 {
		t.Fatalf("VAI params %+v do not match Sec. VI-A", v)
	}
	if c.SFEvery != 30 {
		t.Fatalf("SFEvery = %d, want 30", c.SFEvery)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig()
		cfg.Probabilistic = true
		h := New(cfg)
		e := env() // fixed seed
		h.Init(e)
		var acked, sent, tx int64
		var ts sim.Time
		var ws []float64
		for i := 0; i < 500; i++ {
			ctl := feed(h, &acked, &sent, &tx, &ts, 120_000, 1.0)
			ws = append(ws, ctl.WindowBytes)
		}
		return ws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at ack %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVAIConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	// Invalid but not zero: a zero VAIConfig is VAI off.
	cfg.VAI = core.VAIConfig{TokenThresh: 50_000}
	h := New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("Init must panic on invalid VAI config")
		}
	}()
	h.Init(env())
}
