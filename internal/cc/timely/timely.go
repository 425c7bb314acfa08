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
// gradients.
package timely

import (
	"math"

	"faircc/internal/cc"
	"faircc/internal/core"
	"faircc/internal/sim"
)

// TIMELY's parameters, the TIMELY paper's values rescaled to a 100 Gb/s,
// microsecond-RTT fabric: the EWMA weight of the RTT-difference filter, the
// multiplicative decrease factor, the additive increase step (the paper's
// 50 Mb/s AI), the offsets above the flow's base RTT below which it always
// increases and above which it always decreases, the consecutive
// non-positive gradients that enter HAI mode and the step's multiplier
// there, and the rate floor.
const (
	alpha       float64 = 0.46
	beta        float64 = 0.8
	deltaBps    float64 = 50e6
	tLowOffset          = 1 * sim.Microsecond
	tHighOffset         = 20 * sim.Microsecond
	haiAfter            = 5
	haiMult     float64 = 5
	minRate     float64 = 10e6
)

// Config selects TIMELY's mechanisms: its zero value is stock TIMELY.
// Mechanisms attaches VAI and SF as for Swift: measured congestion is the
// flow's maximum RTT over a round trip, and an ACK is congested above
// base RTT + tLowOffset.
type Config struct {
	core.Mechanisms
}

// VAISFConfig returns TIMELY with VAI and Sampling Frequency attached,
// sized like Swift's: one token per 30 ns of delay above the threshold,
// which is base RTT + tLowOffset plus the min-BDP delay.
func VAISFConfig(minBDPDelay sim.Time) Config {
	return Config{Mechanisms: core.PaperVAISF(float64(minBDPDelay), float64(30*sim.Nanosecond))}
}

// Timely is the per-flow sender state.
type Timely struct {
	cfg Config
	env *cc.Env
	att core.Attachment

	rate     float64 // pacing rate, bps
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
	t.tLow = env.BaseRTT + tLowOffset
	t.tHigh = env.BaseRTT + tHighOffset
	t.prevRTT = env.BaseRTT
	t.att = t.cfg.Attach(float64(t.tLow))
	return t.control()
}

func (t *Timely) control() cc.Control {
	t.rate = math.Min(math.Max(t.rate, minRate), t.env.LineRateBps)
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
	t.rttDiff = float64((1-alpha)*t.rttDiff) + float64(alpha*newDiff)
	gradient := t.rttDiff / float64(t.env.BaseRTT)

	// Decreases obey the Sampling Frequency cadence when configured;
	// increases remain once per RTT (Sec. IV-B: using SF on increases
	// would favor large flows). Each rate update spends VAI tokens, which
	// raise delta from the next ACK on.
	increase, decrease := t.att.Ack(fb.AckedBytes, fb.SentBytes, float64(rtt), rtt > t.tLow)
	delta := float64(deltaBps * t.att.Multiplier())

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
			t.rate *= 1 - float64(beta*(1-float64(t.tHigh)/float64(rtt)))
		}
	case gradient <= 0:
		t.negCount++
		if increase {
			t.att.Spend()
			n := 1.0
			if t.negCount >= haiAfter {
				n = haiMult
			}
			t.rate += float64(n * delta)
		}
	default:
		t.negCount = 0
		if decrease {
			t.att.Spend()
			t.rate *= 1 - float64(beta*math.Min(gradient, 1))
		}
	}
	return t.control()
}
