// Package hpcc implements HPCC (High Precision Congestion Control,
// Li et al., SIGCOMM 2019) as a sender-side algorithm for the faircc
// simulator, plus the variants the paper evaluates: a configurable base
// additive increase ("HPCC 1Gbps"), probabilistic feedback
// ("HPCC Probabilistic", Sec. III-D), and the paper's Variable Additive
// Increase + Sampling Frequency mechanisms ("HPCC VAI SF", Secs. IV-V).
//
// HPCC estimates per-link utilization from INT telemetry:
//
//	u_i = min(qlen, qlen_prev)/(B_i*T) + txRate_i/B_i
//
// takes the maximum across hops, EWMA-filters it into U, and sets the
// window multiplicatively against a reference window Wc:
//
//	U >= eta (or incStage >= maxStage): W = Wc/(U/eta) + W_AI
//	otherwise (additive probe):         W = Wc + W_AI
//
// The reference window Wc updates once per RTT; between updates, per-ACK
// adjustments recompute W from the unchanged Wc, so repeated signals from
// the same congestion event are not compounded.
package hpcc

import (
	"math"

	"faircc/internal/cc"
	"faircc/internal/core"
)

// The paper's HPCC constants (Sec. VI-A): the target utilization eta and
// the additive-probe stages per MI round, maxStage.
const (
	eta      float64 = 0.95
	maxStage         = 5
)

// Config parameterizes HPCC. Start from DefaultConfig.
type Config struct {
	AIBps float64 // base additive increase, 50 Mb/s in the paper

	// Mechanisms attaches VAI and SF; measured congestion is the deepest
	// INT queue of a round trip, in bytes, and an ACK is congested when
	// U >= eta.
	core.Mechanisms
	// Probabilistic ignores a would-be reference-updating multiplicative
	// decrease with probability 1 - Wc/maxW (Sec. III-D: feedback is
	// disregarded when "Current Window < rand() % Max Window").
	Probabilistic bool
}

// DefaultConfig returns the paper's "default HPCC" parameters.
func DefaultConfig() Config {
	return Config{AIBps: 50e6}
}

// VAISFConfig returns the paper's "HPCC VAI SF" parameters (Sec. VI-A):
// tokens minted above a minBDP-bytes queue threshold at one token per KB
// of queue depth, with the paper's bank, spend and dampener constants and
// decreases every 30 ACKs.
func VAISFConfig(minBDPBytes float64) Config {
	c := DefaultConfig()
	c.Mechanisms = core.PaperVAISF(minBDPBytes, 1000)
	return c
}

// HPCC is the per-flow sender state. Create one per flow with New.
type HPCC struct {
	cfg Config
	env *cc.Env
	att core.Attachment

	maxW float64 // line-rate window (B*T)
	wAI  float64 // base additive increase in bytes (AIBps * T / 8)
	wc   float64 // reference window
	w    float64 // current window
	u    float64 // EWMA utilization estimate
	inc  int     // incStage

	prev     []hopRecord // the previous ACK's INT stack
	havePrev bool
	lastProb int64 // acked bytes at the last accepted probabilistic MD
}

// hopRecord is one hop's previous INT record with the hop's link rate B_i
// beside it (from Env.HopBps: a constant of the flow's path), so the
// utilization loop reads both from one place.
type hopRecord struct {
	cc.Telemetry
	bps float64
}

// New returns an HPCC instance with the given configuration.
func New(cfg Config) *HPCC { return &HPCC{cfg: cfg} }

// Window returns the current window in bytes (exposed for tests).
func (h *HPCC) Window() float64 { return h.w }

// Reference returns the reference window Wc in bytes (exposed for tests).
func (h *HPCC) Reference() float64 { return h.wc }

// Util returns the EWMA utilization estimate U (exposed for tests).
func (h *HPCC) Util() float64 { return h.u }

// Init implements cc.Algorithm: flows start at line rate with a one-BDP
// window.
func (h *HPCC) Init(env *cc.Env) cc.Control {
	h.env = env
	h.maxW = cc.BDPBytes(env.LineRateBps, env.BaseRTT)
	h.wAI = cc.BDPBytes(h.cfg.AIBps, env.BaseRTT)
	h.wc = h.maxW
	h.w = h.maxW
	h.u = 1 // assume full utilization until telemetry arrives
	h.att = h.cfg.Attach(0)
	return h.control()
}

func (h *HPCC) control() cc.Control {
	w := math.Max(math.Min(h.w, h.maxW), float64(h.env.MTU))
	h.w = w
	return cc.Control{
		WindowBytes: w,
		RateBps:     w * 8 / h.env.BaseRTT.Seconds(),
	}
}

// measureInflight updates the EWMA utilization U from the ACK's INT stack
// (MeasureInflight in the HPCC paper) and returns it, with the deepest
// queue among the hops it measured: VAI's congestion measure.
func (h *HPCC) measureInflight(fb cc.Feedback) (util, deepest float64) {
	if !h.havePrev {
		h.remember(fb.Hops)
		h.havePrev = true
		return h.u, 0
	}
	T := h.env.BaseRTT.Seconds()
	u := 0.0
	tau := T
	n := len(fb.Hops)
	if len(h.prev) < n {
		n = len(h.prev)
	}
	for i := 0; i < n; i++ {
		cur, prev := fb.Hops[i], &h.prev[i]
		dt := (cur.TS - prev.TS).Seconds()
		if dt <= 0 {
			continue
		}
		txRate := float64(cur.TxBytes-prev.TxBytes) * 8 / dt
		qlen := math.Min(float64(cur.QueueBytes), float64(prev.QueueBytes))
		ui := qlen*8/(prev.bps*T) + txRate/prev.bps
		if ui > u {
			u = ui
			tau = dt
		}
		if q := float64(cur.QueueBytes); q > deepest {
			deepest = q
		}
	}
	if tau > T {
		tau = T
	}
	h.u = float64((1-tau/T)*h.u) + float64((tau/T)*u)
	h.remember(fb.Hops)
	return h.u, deepest
}

// remember keeps hops as the previous INT stack, each record beside its
// hop's rate. A stack of a new depth takes the rates afresh.
func (h *HPCC) remember(hops []cc.Telemetry) {
	if len(h.prev) != len(hops) {
		if cap(h.prev) < len(hops) {
			h.prev = make([]hopRecord, len(hops))
		}
		h.prev = h.prev[:len(hops)]
		for i := range h.prev {
			h.prev[i].bps = h.env.HopBps[i]
		}
	}
	for i, t := range hops {
		h.prev[i].Telemetry = t
	}
}

// OnAck implements cc.Algorithm (NewAck in the HPCC paper, extended with
// the paper's VAI, SF and probabilistic-feedback hooks).
func (h *HPCC) OnAck(fb cc.Feedback) cc.Control {
	util, deepest := h.measureInflight(fb)
	ended, update := h.att.Ack(fb.AckedBytes, fb.SentBytes, deepest, util >= eta)

	decrease := util >= eta || h.inc >= maxStage
	base := h.wc // additive probe: W = Wc + W_AI, Wc moving once per RTT
	if decrease {
		// The reference updates once per RTT by default; with SF, every
		// SFEvery ACKs (the decrease period). A flow whose window holds
		// fewer than SFEvery packets therefore reacts *less* often than
		// once per RTT — that asymmetry against flows with more ACKs is
		// the fairness mechanism (Sec. III-B), not an accident.
		base = h.wc / (util / eta)
		if h.cfg.Probabilistic {
			// With probabilistic feedback the first accepted ACK per
			// window of data triggers the reaction. Acceptance is linear
			// in the window, so flows holding more bandwidth react more
			// often (the fairness effect Sec. III-D borrows from RED
			// marking), but never twice to the same congestion event
			// (mirroring DCQCN's CNP rate limit).
			update = false
			if fb.AckedBytes-h.lastProb >= int64(h.wc) && h.useFeedback() {
				update = true
				h.lastProb = fb.AckedBytes
			}
		}
	} else {
		update = ended
	}
	mult := h.att.Multiplier()
	if update {
		mult = h.att.Spend()
	}
	h.w = base + float64(h.wAI*mult)
	if update {
		if decrease {
			h.inc = 0
		} else {
			h.inc++
		}
		h.wc = clamp(h.w, float64(h.env.MTU), h.maxW)
	}
	return h.control()
}

// useFeedback implements the probabilistic-feedback rule of Sec. III-D:
// the reaction is used only when Current Window >= rand() % Max Window,
// a linear-in-window acceptance probability. "Current Window" is the
// per-RTT reference window, not the per-ACK window.
func (h *HPCC) useFeedback() bool {
	draw := h.env.Rand.Float64() * h.maxW
	return h.wc >= draw
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
