// Package dctcp implements DCTCP (Alizadeh et al., SIGCOMM 2010), which
// the paper cites as the origin of scaling the multiplicative decrease
// with the *extent* of congestion — one of the design decisions Sec.
// III-A identifies as trading convergence speed for low latency. It
// serves as an additional ECN-based baseline next to DCQCN.
//
// The sender maintains alpha, an EWMA of the fraction of ECN-marked
// bytes per window:
//
//	alpha = (1-g)*alpha + g*F
//
// and on congestion cuts the window once per RTT by alpha/2:
//
//	cwnd = cwnd * (1 - alpha/2)
//
// Unmarked ACKs grow the window by 1/cwnd packets (standard congestion
// avoidance). Switches mark deterministically above a single threshold K
// (configure ports with MarkingAt).
package dctcp

import (
	"math"

	"faircc/internal/cc"
	"faircc/internal/core"
	"faircc/internal/net"
	"faircc/internal/sim"
)

// Config parameterizes DCTCP.
type Config struct {
	G            float64 // alpha gain, 1/16
	InitialAlpha float64 // 1 (assume heavy congestion until measured)
}

// DefaultConfig returns the DCTCP paper's parameters.
func DefaultConfig() Config {
	return Config{G: 1.0 / 16, InitialAlpha: 1}
}

// MarkingAt returns the switch RED configuration for DCTCP's step
// marking: every packet enqueued above K bytes is marked.
func MarkingAt(kBytes int64) net.REDConfig {
	return net.REDConfig{KMinBytes: kBytes, KMaxBytes: kBytes + 1, PMax: 1}
}

// RecommendedK returns the DCTCP marking threshold for a link: about
// 1/7th of the bandwidth-delay product (the paper's guideline
// K > C*RTT/7).
func RecommendedK(linkBps float64, rtt sim.Time) int64 {
	return int64(cc.BDPBytes(linkBps, rtt) / 7 * 1.5)
}

// DCTCP is the per-flow sender state.
type DCTCP struct {
	cfg Config
	env *cc.Env

	cwnd    float64 // packets
	maxCwnd float64
	alpha   float64

	// Per-window marking accounting.
	ackedBytes  int64
	markedBytes int64
	window      core.RTTMarker // closes the current observation window
	canCut      bool           // one cut per window
}

// New returns a DCTCP instance.
func New(cfg Config) *DCTCP { return &DCTCP{cfg: cfg} }

// Alpha returns the congestion estimate (for tests).
func (d *DCTCP) Alpha() float64 { return d.alpha }

// Cwnd returns the congestion window in packets (for tests).
func (d *DCTCP) Cwnd() float64 { return d.cwnd }

// Init implements cc.Algorithm: flows start at line rate like the other
// RDMA protocols in this simulator.
func (d *DCTCP) Init(env *cc.Env) cc.Control {
	d.env = env
	d.maxCwnd = cc.BDPBytes(env.LineRateBps, env.BaseRTT) / float64(env.MTU)
	d.cwnd = d.maxCwnd
	d.alpha = d.cfg.InitialAlpha
	d.canCut = true
	return d.control()
}

func (d *DCTCP) control() cc.Control {
	d.cwnd = math.Min(math.Max(d.cwnd, 0.1), d.maxCwnd)
	w := d.cwnd * float64(d.env.MTU)
	rate := d.env.LineRateBps
	if d.cwnd < 1 {
		rate = w * 8 / d.env.BaseRTT.Seconds()
	}
	return cc.Control{WindowBytes: math.Max(w, 1), RateBps: rate}
}

// OnAck implements cc.Algorithm.
func (d *DCTCP) OnAck(fb cc.Feedback) cc.Control {
	d.ackedBytes += int64(fb.NewlyAcked)
	if fb.ECE {
		d.markedBytes += int64(fb.NewlyAcked)
	}

	// Close the observation window once a window of data is acked.
	if d.window.Passed(fb.AckedBytes) {
		if d.ackedBytes > 0 {
			f := float64(d.markedBytes) / float64(d.ackedBytes)
			d.alpha = (1-d.cfg.G)*d.alpha + d.cfg.G*f
		}
		d.ackedBytes, d.markedBytes = 0, 0
		d.window.Reset(fb.SentBytes)
		d.canCut = true
	}

	if fb.ECE {
		if d.canCut {
			d.cwnd *= 1 - d.alpha/2
			d.canCut = false
		}
	} else if d.cwnd >= 1 {
		d.cwnd += float64(fb.NewlyAcked) / float64(d.env.MTU) / d.cwnd
	} else {
		d.cwnd += float64(fb.NewlyAcked) / float64(d.env.MTU)
	}
	return d.control()
}
