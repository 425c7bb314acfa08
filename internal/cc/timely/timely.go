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

	// Mechanisms attaches VAI and SF as for Swift: measured congestion is
	// the flow's maximum RTT over a round trip, and an ACK is congested
	// above TLow.
	core.Mechanisms
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
	c.Mechanisms = core.PaperVAISF(float64(minBDPDelay), float64(30*sim.Nanosecond))
	return c
}

// Timely is the per-flow sender state.
type Timely struct {
	cfg Config
	env *cc.Env
	att core.Attachment

	rate     float64 // pacing rate, bps
	minRate  float64
	tLow     sim.Time
	tHigh    sim.Time
	prevRTT  sim.Time
	rttDiff  float64 // EWMA of RTT differences, ps
	negCount int     // consecutive non-positive gradients
}

// New returns a TIMELY instance.
func New(cfg Config) *Timely { return &Timely{cfg: cfg} }

// Rate returns the current pacing rate in bps (for tests).
func (t *Timely) Rate() float64 { return t.rate }

// Init implements cc.Algorithm: flows start at line rate.
func (t *Timely) Init(env *cc.Env) cc.Control {
	t.env = env
	t.rate = env.LineRateBps
	t.minRate = 10e6
	t.tLow = env.BaseRTT + t.cfg.TLow
	t.tHigh = env.BaseRTT + t.cfg.THigh
	t.prevRTT = env.BaseRTT
	t.att = t.cfg.Attach(float64(t.tLow))
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
	t.rttDiff = float64((1-t.cfg.Alpha)*t.rttDiff) + float64(t.cfg.Alpha*newDiff)
	gradient := t.rttDiff / float64(t.env.BaseRTT)

	// Decreases obey the Sampling Frequency cadence when configured;
	// increases remain once per RTT (Sec. IV-B: using SF on increases
	// would favor large flows). Each rate update spends VAI tokens, which
	// raise delta from the next ACK on.
	increase, decrease := t.att.Ack(fb.AckedBytes, fb.SentBytes, float64(rtt), rtt > t.tLow)
	delta := float64(t.cfg.DeltaBps * t.att.Multiplier())

	switch {
	case rtt < t.tLow:
		t.negCount = 0
		if increase {
			t.att.Spend()
			t.rate += delta
		}
	case rtt > t.tHigh:
		t.negCount = 0
		if decrease {
			t.att.Spend()
			t.rate *= 1 - float64(t.cfg.Beta*(1-float64(t.tHigh)/float64(rtt)))
		}
	case gradient <= 0:
		t.negCount++
		if increase {
			t.att.Spend()
			n := 1.0
			if t.negCount >= t.cfg.HAIAfter {
				n = t.cfg.HAIMult
			}
			t.rate += float64(n * delta)
		}
	default:
		t.negCount = 0
		if decrease {
			t.att.Spend()
			t.rate *= 1 - float64(t.cfg.Beta*math.Min(gradient, 1))
		}
	}
	return t.control()
}
