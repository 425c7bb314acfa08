// Package timely implements TIMELY (Mittal et al., SIGCOMM 2015), the
// RTT-gradient-based congestion control the paper cites as its third
// example of a sender-side reaction protocol. It exists here to
// demonstrate the paper's claim that Variable Additive Increase and
// Sampling Frequency "could be used with a multitude of congestion
// control algorithms": both mechanisms attach to TIMELY exactly as they
// do to Swift.
//
// TIMELY tracks the smoothed RTT gradient and adjusts a pacing rate:
//
//	rtt < Tlow:            rate += delta             (additive increase)
//	rtt > Thigh:           rate *= 1 - beta*(1 - Thigh/rtt)
//	gradient <= 0:         rate += N*delta           (N = 5 in HAI mode)
//	gradient > 0:          rate *= 1 - beta*norm_gradient
//
// where norm_gradient is the EWMA of RTT differences divided by the
// minimum RTT, and HAI mode engages after five consecutive non-positive
// gradients. Parameters default to the TIMELY paper's values rescaled to
// a 100 Gb/s, microsecond-RTT fabric.
package timely

import (
	"math"

	"faircc/internal/cc"
	"faircc/internal/core"
	"faircc/internal/sim"
)

// Config parameterizes TIMELY.
type Config struct {
	Alpha    float64  // EWMA weight for the RTT-difference filter (0.46)
	Beta     float64  // multiplicative decrease factor (0.8)
	DeltaBps float64  // additive increase step (50 Mb/s, matching the paper's AI)
	TLow     sim.Time // below this RTT, always increase (base + 1 us)
	THigh    sim.Time // above this RTT, always decrease (base + 20 us)
	HAIAfter int      // consecutive non-positive gradients to enter HAI (5)
	HAIMult  float64  // delta multiplier in HAI mode (5)

	// VAI and SFEvery attach the paper's mechanisms, as for Swift:
	// measured congestion is the flow's maximum RTT over a round trip.
	VAI     *core.VAIConfig
	SFEvery int
}

// DefaultConfig returns TIMELY parameters for a 100 Gb/s fabric. TLow and
// THigh are offsets added to the flow's base RTT at Init.
func DefaultConfig() Config {
	return Config{
		Alpha:    0.46,
		Beta:     0.8,
		DeltaBps: 50e6,
		TLow:     1 * sim.Microsecond,
		THigh:    20 * sim.Microsecond,
		HAIAfter: 5,
		HAIMult:  5,
	}
}

// VAISFConfig returns TIMELY with VAI and Sampling Frequency attached,
// sized like Swift's: one token per 30 ns of delay above the threshold,
// which is TLow plus the min-BDP delay.
func VAISFConfig(minBDPDelay sim.Time) Config {
	c := DefaultConfig()
	c.VAI = &core.VAIConfig{
		TokenThresh:   float64(minBDPDelay), // completed with TLow in Init
		AIDiv:         float64(30 * sim.Nanosecond),
		BankCap:       1000,
		AICap:         100,
		DampenerConst: 8,
	}
	c.SFEvery = 30
	return c
}

// Timely is the per-flow sender state.
type Timely struct {
	cfg  Config
	env  cc.Env
	name string

	rate     float64 // pacing rate, bps
	tLow     sim.Time
	tHigh    sim.Time
	prevRTT  sim.Time
	rttDiff  float64 // EWMA of RTT differences, ps
	negCount int     // consecutive non-positive gradients

	marker  core.RTTMarker
	sampler core.Sampler
	vai     *core.VAI
	maxRTT  sim.Time
	sawCong bool
	minRate float64
}

// New returns a TIMELY instance.
func New(cfg Config) *Timely {
	t := &Timely{cfg: cfg}
	switch {
	case cfg.VAI != nil && cfg.SFEvery > 0:
		t.name = "Timely VAI SF"
	case cfg.VAI != nil:
		t.name = "Timely VAI"
	case cfg.SFEvery > 0:
		t.name = "Timely SF"
	default:
		t.name = "Timely"
	}
	return t
}

// Name implements cc.Algorithm.
func (t *Timely) Name() string { return t.name }

// Rate returns the current pacing rate in bps (for tests).
func (t *Timely) Rate() float64 { return t.rate }

// Init implements cc.Algorithm: flows start at line rate.
func (t *Timely) Init(env cc.Env) cc.Control {
	t.env = env
	t.rate = env.LineRateBps
	t.minRate = 10e6
	t.tLow = env.BaseRTT + t.cfg.TLow
	t.tHigh = env.BaseRTT + t.cfg.THigh
	t.prevRTT = env.BaseRTT
	if t.cfg.VAI != nil {
		v := *t.cfg.VAI
		v.TokenThresh += float64(t.tLow)
		t.vai = core.NewVAI(v)
	}
	t.sampler = core.Sampler{Every: t.cfg.SFEvery}
	t.marker.Reset(0)
	return t.control()
}

func (t *Timely) control() cc.Control {
	t.rate = math.Min(math.Max(t.rate, t.minRate), t.env.LineRateBps)
	return cc.Control{
		// TIMELY is rate-based; the window is a line-rate BDP cap so
		// pacing governs.
		WindowBytes: cc.BDPBytes(t.env.LineRateBps, t.env.BaseRTT),
		RateBps:     t.rate,
	}
}

// OnAck implements cc.Algorithm.
func (t *Timely) OnAck(fb cc.Feedback) cc.Control {
	rtt := fb.RTT
	newDiff := float64(rtt - t.prevRTT)
	t.prevRTT = rtt
	t.rttDiff = (1-t.cfg.Alpha)*t.rttDiff + t.cfg.Alpha*newDiff
	gradient := t.rttDiff / float64(t.env.BaseRTT)

	rttPassed := t.marker.Passed(fb.AckedBytes)
	sfFired := t.sampler.Tick()
	t.noteCongestion(rtt, rttPassed)

	delta := t.cfg.DeltaBps
	if t.vai != nil {
		delta *= t.vai.Multiplier()
	}

	// Decreases obey the Sampling Frequency cadence when configured;
	// increases remain once per RTT (Sec. IV-B: using SF on increases
	// would favor large flows).
	decreaseAllowed := rttPassed
	if t.cfg.SFEvery > 0 {
		decreaseAllowed = sfFired
	}
	increaseAllowed := rttPassed

	switch {
	case rtt < t.tLow:
		t.negCount = 0
		if increaseAllowed {
			t.spend()
			t.rate += delta
		}
	case rtt > t.tHigh:
		t.negCount = 0
		if decreaseAllowed {
			t.spend()
			t.rate *= 1 - t.cfg.Beta*(1-float64(t.tHigh)/float64(rtt))
		}
	case gradient <= 0:
		t.negCount++
		if increaseAllowed {
			t.spend()
			n := 1.0
			if t.negCount >= t.cfg.HAIAfter {
				n = t.cfg.HAIMult
			}
			t.rate += n * delta
		}
	default:
		t.negCount = 0
		if decreaseAllowed {
			t.spend()
			t.rate *= 1 - t.cfg.Beta*math.Min(gradient, 1)
		}
	}
	if rttPassed {
		t.marker.Reset(fb.SentBytes)
	}
	return t.control()
}

// spend draws the VAI multiplier once per rate-update period.
func (t *Timely) spend() {
	if t.vai != nil {
		t.vai.Spend()
	}
}

// noteCongestion maintains Algorithm 1's per-RTT bookkeeping.
func (t *Timely) noteCongestion(rtt sim.Time, rttPassed bool) {
	if rtt > t.maxRTT {
		t.maxRTT = rtt
	}
	if rtt > t.tLow {
		t.sawCong = true
	}
	if rttPassed && t.vai != nil {
		t.vai.OnRTTEnd(float64(t.maxRTT), !t.sawCong)
		t.maxRTT = 0
		t.sawCong = false
	}
}
