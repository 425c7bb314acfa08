package cc_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/cc/timely"
	"faircc/internal/sim"
)

const (
	traceACKs     = 200_000
	traceLineRate = 100e9
	traceBaseRTT  = 8 * sim.Microsecond
	traceMTU      = 1000
	traceHops     = 3
)

// TestControlTraces pins every protocol's arithmetic bit for bit: each
// configuration is driven by traceACKs ACKs of seeded synthetic feedback
// (INT stacks, RTTs, acked and sent bytes, through idle, light and heavy
// phases), and the FNV-64a hash of every Control it returns must equal the
// recorded value. The feedback closes the loop through the returned window
// and rate, so a change anywhere in a protocol's reaction shows here.
func TestControlTraces(t *testing.T) {
	const minBDPBytes = 50_000
	minBDPDelay := 4 * sim.Microsecond
	h := func(c hpcc.Config, edit func(*hpcc.Config)) cc.Algorithm {
		if edit != nil {
			edit(&c)
		}
		return hpcc.New(c)
	}
	s := func(c swift.Config, edit func(*swift.Config)) cc.Algorithm {
		if edit != nil {
			edit(&c)
		}
		return swift.New(c)
	}
	tm := func(c timely.Config, edit func(*timely.Config)) cc.Algorithm {
		if edit != nil {
			edit(&c)
		}
		return timely.New(c)
	}
	hai := func(c *swift.Config) { c.HyperAI = true }
	cases := []struct {
		name string
		algo cc.Algorithm
		want uint64
	}{
		{"hpcc", h(hpcc.DefaultConfig(), nil), 0x9ff2ef030cfb3c86},
		{"hpcc-vai", h(hpcc.VAISFConfig(minBDPBytes), func(c *hpcc.Config) { c.SFEvery = 0 }), 0x1c0e171e33520908},
		{"hpcc-sf", h(hpcc.DefaultConfig(), func(c *hpcc.Config) { c.SFEvery = 30 }), 0xdcfa1b8fda0d4cf5},
		{"hpcc-vaisf", h(hpcc.VAISFConfig(minBDPBytes), nil), 0x6acf97cc20aa2c7a},
		{"hpcc-1g", h(hpcc.DefaultConfig(), func(c *hpcc.Config) { c.AIBps = 1e9 }), 0x563b9cf64d8846e5},
		{"hpcc-prob", h(hpcc.DefaultConfig(), func(c *hpcc.Config) { c.Probabilistic = true }), 0xa53402ee94a0b8b8},
		{"hpcc-vaisf-prob", h(hpcc.VAISFConfig(minBDPBytes), func(c *hpcc.Config) { c.Probabilistic = true }), 0x397c68af6faa9bc2},

		{"swift", s(swift.DefaultConfig(100), nil), 0xfa6a225b06de7f9},
		{"swift-vai", s(swift.VAISFConfig(minBDPDelay), func(c *swift.Config) { c.SFEvery = 0 }), 0x91ca0aaa5c2ace2e},
		{"swift-sf", s(swift.DefaultConfig(100), func(c *swift.Config) { c.SFEvery = 30 }), 0xacc07c84b8167bca},
		{"swift-vaisf", s(swift.VAISFConfig(minBDPDelay), nil), 0x76715d00ebb80ca0},
		{"swift-1g", s(swift.DefaultConfig(100), func(c *swift.Config) { c.AIBps = 1e9 }), 0x2b44d43c755669a},
		{"swift-prob", s(swift.DefaultConfig(100), func(c *swift.Config) { c.Probabilistic = true }), 0xdf377843b31d46ed},
		{"swift-w50", s(swift.DefaultConfig(50), nil), 0xe52f9c061f21e8b0},
		{"swift-hai", s(swift.DefaultConfig(100), hai), 0x1f832564c696936a},
		{"swift-vaisf-hai", s(swift.VAISFConfig(minBDPDelay), hai), 0xb7b7855105ff5cc5},

		{"timely", tm(timely.Config{}, nil), 0xa025343843452072},
		{"timely-vai", tm(timely.VAISFConfig(minBDPDelay), func(c *timely.Config) { c.SFEvery = 0 }), 0x21c1459866fca0df},
		{"timely-sf", tm(timely.Config{}, func(c *timely.Config) { c.SFEvery = 30 }), 0x9631491655d630c},
		{"timely-vaisf", tm(timely.VAISFConfig(minBDPDelay), nil), 0x9b32d25e2fb54d94},
	}
	for i, c := range cases {
		if got := controlTrace(c.algo, int64(i+1)); got != c.want {
			t.Errorf("%s: control trace hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// controlTrace drives algo through traceACKs ACKs of feedback drawn from
// seed and returns the FNV-64a hash of every Control it produced.
func controlTrace(algo cc.Algorithm, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	var (
		now sim.Time
		ctl cc.Control
		buf [16]byte
	)
	hash := fnv.New64a()
	record := func(c cc.Control) {
		ctl = c
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(c.WindowBytes))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(c.RateBps))
		hash.Write(buf[:])
	}
	env := cc.Env{
		LineRateBps: traceLineRate,
		BaseRTT:     traceBaseRTT,
		MTU:         traceMTU,
		HopBps:      []float64{traceLineRate, traceLineRate, traceLineRate},
		Rand:        rand.New(rand.NewSource(seed + 1000)),
	}
	record(algo.Init(&env))

	var (
		acked, sent int64
		tx          [traceHops]int64
		hops        = make([]cc.Telemetry, traceHops)
		phase, left int
	)
	for n := 0; n < traceACKs; n++ {
		if left == 0 {
			phase, left = rng.Intn(3), 500+rng.Intn(5000)
		}
		left--
		newly := traceMTU
		if rng.Intn(8) == 0 {
			newly *= 2 + rng.Intn(2)
		}
		dt := sim.TransmitTime(newly, math.Max(ctl.RateBps, 1e6))
		now += dt

		var deepest int64
		var frac float64
		// The light and heavy phases each draw one value no protocol reads,
		// so the recorded hashes keep the feedback stream they were
		// recorded on.
		switch phase {
		case 0: // idle
			frac = 0.2 + 0.3*rng.Float64()
		case 1: // light
			deepest = rng.Int63n(30_000)
			frac = 0.8 + 0.18*rng.Float64()
			rng.Intn(20)
		default: // heavy
			deepest = 50_000 + rng.Int63n(350_000)
			frac = 1
			rng.Intn(2)
		}
		deep := rng.Intn(traceHops)
		var queued int64
		for i := range hops {
			q := deepest
			if i != deep {
				q = int64(float64(deepest) * rng.Float64() / 4)
			}
			queued += q
			tx[i] += int64(frac * sim.BytesOver(traceLineRate, dt))
			hops[i] = cc.Telemetry{QueueBytes: q, TxBytes: tx[i],
				TS: now - sim.Time(traceHops-i)*sim.Nanosecond}
		}
		rtt := traceBaseRTT + sim.TransmitTime(int(queued), traceLineRate) +
			sim.Time(rng.Int63n(int64(200*sim.Nanosecond)))

		acked += int64(newly)
		inflight := int64(ctl.WindowBytes) / traceMTU * traceMTU
		sent = max(sent, acked+max(inflight, traceMTU))
		record(algo.OnAck(cc.Feedback{
			Now: now, RTT: rtt,
			AckedBytes: acked, SentBytes: sent, NewlyAcked: newly, Hops: hops,
		}))
	}
	return hash.Sum64()
}
