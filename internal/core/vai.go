// Package core implements the paper's two mechanisms for fast convergence
// to fairness in sender-side datacenter congestion control:
//
//   - Variable Additive Increase (VAI): Algorithms 1 and 2 of the paper.
//     Congestion above a threshold (which the paper argues signals a new
//     flow joining, and therefore an unfair allocation) mints AI tokens
//     into a capped bank; tokens multiply the protocol's base additive
//     increase, and a dampener divides the boost when congestion persists
//     so the mechanism cannot enter a feedback loop with itself.
//
//   - Sampling Frequency (SF): rate *decreases* are applied every s
//     acknowledgements instead of once per RTT, so flows holding more
//     bandwidth — which receive proportionally more ACKs — decrease more
//     often, restoring the natural fairness effect that once-per-RTT
//     reaction removes. Increases remain once per RTT (reacting to every
//     ACK on increases would favor large flows and fight fairness).
//
// Both mechanisms are protocol-agnostic and attach one way: a protocol's
// Config embeds Mechanisms and each flow holds an Attachment, fed one call
// per ACK. internal/cc/hpcc and internal/cc/swift attach them to HPCC and
// Swift as Sec. V of the paper describes; internal/cc/timely attaches them
// to TIMELY the same way.
package core

import "math"

// bankCap bounds the token bank (1000 in the paper, Sec. VI-A).
const bankCap float64 = 1000

// VAIConfig parameterizes Variable Additive Increase. "Congestion units"
// are protocol-specific: bytes of switch queue for HPCC, picoseconds of
// packet delay for Swift and TIMELY. TokenThresh and AIDiv must use the
// same unit the caller passes to OnRTTEnd.
type VAIConfig struct {
	// TokenThresh is the measured-congestion level above which tokens are
	// minted. The paper sets it to the minimum bandwidth-delay product of
	// the network (~50 KB at 100 Gb/s), because a joining flow that sends
	// at line rate for an RTT deposits at least one min-BDP of queue.
	TokenThresh float64
	// AIDiv converts measured congestion into tokens: one token is minted
	// per AIDiv congestion units (1 KB of queue for HPCC, 30 ns of delay
	// for Swift in the paper's evaluation).
	AIDiv float64
	// AICap bounds the tokens spendable per rate-update period (100 in the
	// paper). Larger values trade latency for faster convergence.
	AICap float64
	// DampenerConst divides the dampener when computing the AI divisor
	// (8 in the paper).
	DampenerConst float64
}

// Valid reports whether the configuration is usable.
func (c VAIConfig) Valid() bool {
	return c.TokenThresh > 0 && c.AIDiv > 0 && c.AICap > 0 && c.DampenerConst > 0
}

// IsZero reports whether c is the zero VAIConfig, which Mechanisms reads as
// VAI off.
func (c VAIConfig) IsZero() bool { return c == VAIConfig{} }

// VAI holds the token bank and dampener state of Algorithm 1 and computes
// the additive-increase multiplier of Algorithm 2. It reads its constants
// through cfg, so an Attachment keeps one inline without a copy of the
// protocol's config; thresh is cfg's TokenThresh plus the protocol's offset.
// The zero value is not ready; use NewVAI.
type VAI struct {
	cfg        *VAIConfig
	thresh     float64
	bank       float64
	dampener   float64
	multiplier float64
}

// NewVAI returns a VAI with an empty bank and a multiplier of 1 (so the
// base AI applies until congestion mints tokens). It panics on an invalid
// configuration, which is always a programming error.
func NewVAI(cfg VAIConfig) *VAI {
	v := newVAI(&cfg, 0)
	return &v
}

// newVAI is NewVAI reading cfg in place, with offset added to its token
// threshold.
func newVAI(cfg *VAIConfig, offset float64) VAI {
	if !cfg.Valid() {
		panic("core: invalid VAIConfig")
	}
	return VAI{cfg: cfg, thresh: cfg.TokenThresh + offset, multiplier: 1}
}

// Bank returns the current token-bank level.
func (v *VAI) Bank() float64 { return v.bank }

// Dampener returns the current dampener value.
func (v *VAI) Dampener() float64 { return v.dampener }

// Multiplier returns the additive-increase multiplier computed at the most
// recent Spend. It is always >= 1: VAI can only raise AI above the
// protocol's base value, never below.
func (v *VAI) Multiplier() float64 { return v.multiplier }

// OnRTTEnd implements Algorithm 1. It is called once per round-trip with
// the maximum congestion measured during that RTT (max egress queue depth
// for HPCC, max packet delay for Swift) and noCongestion, which reports
// whether the entire RTT was congestion-free (max C < 1 for HPCC; no packet
// delay above target for Swift). The dampener resets only when the bank is
// empty *and* the RTT was congestion-free — at that point the mechanism has
// no input and no output, so no feedback loop can exist.
//
// Tokens are minted from the congestion *in excess of* the threshold,
// following the paper's prose ("dividing the difference between Measured
// Congestion [and Token_Thresh] by a configurable constant"; for Swift,
// "an AI token for every 30ns of queueing delay" — queueing delay, not raw
// RTT). The dampener grows with the full measured congestion as in
// Algorithm 1 line 6.
func (v *VAI) OnRTTEnd(measured float64, noCongestion bool) {
	switch {
	case measured > v.thresh:
		v.bank = math.Min((measured-v.thresh)/v.cfg.AIDiv+v.bank, bankCap)
		v.dampener += measured / v.thresh
	case v.bank == 0:
		if noCongestion {
			v.dampener = 0
		} else if measured < v.thresh {
			v.dampener = math.Max(v.dampener-1, 0)
		}
	}
}

// Spend implements Algorithm 2: it withdraws up to AICap tokens from the
// bank, divides them by the dampener divisor, updates the multiplier (never
// below 1), and returns it. Call it once per rate-update period — every
// decrease period when the rate is falling, every RTT when it is rising —
// so that banked tokens are spread over time instead of creating one large
// queue spike.
func (v *VAI) Spend() float64 {
	tokens := math.Min(v.cfg.AICap, v.bank)
	v.bank = math.Max(v.bank-tokens, 0)
	divisor := v.dampener/v.cfg.DampenerConst + 1
	v.multiplier = math.Max(tokens/divisor, 1)
	return v.multiplier
}

// Sampler implements Sampling Frequency: Tick is called once per received
// acknowledgement and fires every Every ticks. A zero or negative Every
// disables the sampler (Tick never fires), which callers use for the
// default once-per-RTT behaviour.
type Sampler struct {
	Every int
	count int
}

// Tick records one acknowledgement and reports whether a decrease-side
// reference update is due.
func (s *Sampler) Tick() bool {
	if s.Every <= 0 {
		return false
	}
	s.count++
	if s.count >= s.Every {
		s.count = 0
		return true
	}
	return false
}

// RTTMarker detects round-trip boundaries the way HPCC does: an RTT has
// passed once the cumulative acknowledged bytes exceed the bytes that had
// been sent when the marker was last reset (ack.seq > lastUpdateSeq).
type RTTMarker struct {
	mark int64
}

// Passed reports whether the acknowledgement covering ackedBytes completes
// the round-trip started at the last Reset.
func (m *RTTMarker) Passed(ackedBytes int64) bool { return ackedBytes > m.mark }

// Reset starts a new round-trip measured from sentBytes (snd_nxt).
func (m *RTTMarker) Reset(sentBytes int64) { m.mark = sentBytes }
