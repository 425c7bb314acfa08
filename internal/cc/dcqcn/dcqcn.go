// Package dcqcn implements DCQCN (Zhu et al., SIGCOMM 2015), the ECN-based
// congestion control for large-scale RDMA deployments. The paper under
// reproduction uses DCQCN as its background example of probabilistic
// feedback (Sec. II): RED marking makes flows with more packets in the
// queue proportionally more likely to receive congestion notifications, so
// DCQCN does not suffer the deterministic-feedback unfairness of HPCC and
// Swift.
//
// The sender keeps a current rate Rc and a target rate Rt. A Congestion
// Notification Packet (CNP, modeled as an ECE-marked ACK rate-limited at
// the receiver) cuts the rate:
//
//	Rt = Rc; Rc = Rc * (1 - alpha/2); alpha = (1-g)*alpha + g
//
// Without CNPs, alpha decays every AlphaTimer, and rate increases are
// driven by an elapsed-time counter and a transmitted-bytes counter: fast
// recovery halves the gap to Rt, then additive increase raises Rt by
// RAIBps, then hyper increase by HAIBps once both counters pass the
// fast-recovery threshold.
package dcqcn

import (
	"math"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// Config parameterizes DCQCN. Defaults follow the DCQCN paper scaled to
// 100 Gb/s links (as in the HPCC artifact's DCQCN configuration).
type Config struct {
	G           float64  // alpha gain, 1/256
	AlphaTimer  sim.Time // alpha decay period without CNPs, 55us
	RateTimer   sim.Time // rate-increase timer period, 55us
	ByteCounter int64    // rate-increase byte counter period, 10 MB
	F           int      // fast-recovery steps, 5
	RAIBps      float64  // additive increase, 40 Mb/s
	HAIBps      float64  // hyper increase, 200 Mb/s
	MinRateBps  float64  // rate floor, 100 Mb/s
}

// DefaultConfig returns DCQCN parameters for 100 Gb/s networks.
func DefaultConfig() Config {
	return Config{
		G:           1.0 / 256,
		AlphaTimer:  55 * sim.Microsecond,
		RateTimer:   55 * sim.Microsecond,
		ByteCounter: 10 << 20,
		F:           5,
		RAIBps:      40e6,
		HAIBps:      200e6,
		MinRateBps:  100e6,
	}
}

// DCQCN is the per-flow sender state.
type DCQCN struct {
	cfg Config
	env *cc.Env

	rc, rt     float64 // current and target rate, bps
	alpha      float64
	timerCnt   int   // rate-timer expirations since last CNP
	byteCnt    int   // byte-counter expirations since last CNP
	bytesAccum int64 // bytes toward the next byte-counter expiration
	cnpSeen    bool  // CNP since the last alpha-timer expiration

	// alphaTick and rateTick are the timer bodies bound once in Init:
	// passing a fresh method value (d.alphaTimer) to Schedule on every
	// expiration allocated a funcval per tick.
	alphaTick func()
	rateTick  func()
}

// New returns a DCQCN instance.
func New(cfg Config) *DCQCN { return &DCQCN{cfg: cfg} }

// Rate returns the current rate in bps (for tests).
func (d *DCQCN) Rate() float64 { return d.rc }

// Alpha returns the current alpha estimate (for tests).
func (d *DCQCN) Alpha() float64 { return d.alpha }

// Init implements cc.Algorithm: flows start at line rate with alpha = 1.
func (d *DCQCN) Init(env *cc.Env) cc.Control {
	d.env = env
	d.rc = env.LineRateBps
	d.rt = env.LineRateBps
	d.alpha = 1
	if env.Timers != nil {
		d.alphaTick = d.alphaTimer
		d.rateTick = d.rateTimer
		env.Timers.Schedule(d.cfg.AlphaTimer, d.alphaTick)
		env.Timers.Schedule(d.cfg.RateTimer, d.rateTick)
	}
	return d.control()
}

func (d *DCQCN) control() cc.Control {
	d.rc = math.Min(math.Max(d.rc, d.cfg.MinRateBps), d.env.LineRateBps)
	d.rt = math.Min(math.Max(d.rt, d.cfg.MinRateBps), d.env.LineRateBps)
	// DCQCN is purely rate-based: leave the window at one line-rate BDP
	// so pacing, not the window, governs.
	return cc.Control{
		WindowBytes: cc.BDPBytes(d.env.LineRateBps, d.env.BaseRTT),
		RateBps:     d.rc,
	}
}

func (d *DCQCN) alphaTimer() {
	if !d.cnpSeen {
		d.alpha = (1 - d.cfg.G) * d.alpha
	}
	d.cnpSeen = false
	d.env.Timers.Schedule(d.cfg.AlphaTimer, d.alphaTick)
}

func (d *DCQCN) rateTimer() {
	d.timerCnt++
	d.increase()
	d.env.Timers.Schedule(d.cfg.RateTimer, d.rateTick)
	d.env.Timers.SetControl(d.control())
}

// increase performs one rate-increase event: hyper increase once both
// counters pass F, additive once either does, fast recovery otherwise.
func (d *DCQCN) increase() {
	switch {
	case d.timerCnt > d.cfg.F && d.byteCnt > d.cfg.F:
		d.rt += d.cfg.HAIBps
	case d.timerCnt > d.cfg.F || d.byteCnt > d.cfg.F:
		d.rt += d.cfg.RAIBps
	}
	d.rc = (d.rt + d.rc) / 2
}

// OnAck implements cc.Algorithm. An ECE-marked ACK is a CNP.
func (d *DCQCN) OnAck(fb cc.Feedback) cc.Control {
	// Drive the byte counter from acknowledged bytes (a faithful proxy
	// for transmitted bytes in a lossless network).
	d.bytesAccum += int64(fb.NewlyAcked)
	for d.bytesAccum >= d.cfg.ByteCounter {
		d.bytesAccum -= d.cfg.ByteCounter
		d.byteCnt++
		d.increase()
	}
	if fb.ECE {
		d.cutRate()
	}
	return d.control()
}

func (d *DCQCN) cutRate() {
	d.rt = d.rc
	d.rc *= 1 - d.alpha/2
	d.alpha = (1-d.cfg.G)*d.alpha + d.cfg.G
	d.timerCnt = 0
	d.byteCnt = 0
	d.bytesAccum = 0
	d.cnpSeen = true
}
