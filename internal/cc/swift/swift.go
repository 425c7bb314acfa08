// Package swift implements Swift (Kumar et al., SIGCOMM 2020), the
// delay-based datacenter congestion-control protocol, as configured by the
// paper (Sec. III-D): beta = 0.8, max_mdf = 0.5, additive increase
// 50 Mb/s, flow-based scaling (FBS) and topology-based scaling of the
// target delay, and — unlike TCP-like Swift deployments — flows start at
// line rate to match RDMA congestion control.
//
// The multiplicative decrease factor is the paper's Eq. (1):
//
//	mdf = max(1 - beta*(Delay - Target)/Delay, max_mdf)
//
// applied at most once per RTT by default. The paper's variants are all
// supported: a 1 Gb/s AI, probabilistic feedback, and VAI + Sampling
// Frequency, the latter adding HPCC-style reference-window semantics and
// an always-applied additive increase (Sec. V-B).
package swift

import (
	"math"

	"faircc/internal/cc"
	"faircc/internal/core"
	"faircc/internal/sim"
)

// The paper's Swift constants: the base target delay and its per-hop
// topology scaling, beta and max_mdf of Eq. (1) (the largest decrease is a
// halving), and flow-based scaling's fs_range and minimum scaling window
// (below it the full range applies), as in Kumar et al.
const (
	baseTarget         = 5 * sim.Microsecond
	perHop             = 2 * sim.Microsecond
	beta       float64 = 0.8
	maxMdf     float64 = 0.5
	fbsRange           = 4 * sim.Microsecond
	fbsMinCwnd float64 = 0.1
)

// Config parameterizes Swift. Start from DefaultConfig.
type Config struct {
	AIBps float64 // base additive increase, 50 Mb/s

	// FBSMaxCwnd enables flow-based scaling of the target delay,
	// target += clamp(alpha/sqrt(cwnd_pkts) + beta_fs, 0, fs_range), when
	// positive: it is the max scaling window in packets, above which no
	// scaling applies, and alpha and beta_fs derive from it and the minimum
	// window as in Kumar et al. Zero is no FBS; the paper's VAI SF variant
	// runs without FBS (Sec. VI-B).
	FBSMaxCwnd float64
	// Mechanisms attaches VAI and SF; measured congestion is a round
	// trip's maximum delay and an ACK is congested above the target. SF
	// (decreases every SFEvery ACKs) brings with it the HPCC-style
	// reference window and always-on AI of Sec. V-B; zero keeps classic
	// once-per-RTT Swift.
	core.Mechanisms
	// Probabilistic ignores a would-be reference-updating decrease with
	// probability 1 - cwnd/maxCwnd (Sec. III-D).
	Probabilistic bool

	// HAIAfter enables Timely-style hyper additive increase, the
	// extension the paper suggests for Swift's slow bandwidth recovery
	// ("Swift may benefit from a hyper additive increase setting like in
	// Timely", Sec. VI-B): after HAIAfter consecutive congestion-free
	// RTTs the additive increase is multiplied by HAIMult until
	// congestion reappears. Zero disables it.
	HAIAfter int
	HAIMult  float64
}

// DefaultConfig returns the paper's Swift parameters with FBS at a max
// scaling window of maxScalePkts (100 in Kumar et al.; the paper lowers it
// to 50 on the single-switch topology because windows are smaller there).
func DefaultConfig(maxScalePkts float64) Config {
	return Config{AIBps: 50e6, FBSMaxCwnd: maxScalePkts}
}

// VAISFConfig returns the paper's "Swift VAI SF" parameters (Sec. VI-A):
// no FBS, token threshold of target delay plus the min-BDP queueing delay
// (4us at 100 Gb/s for 50 KB), one token per 30 ns of delay, with the
// paper's bank, spend and dampener constants and decreases every 30 ACKs.
// Init adds the flow's target delay, which depends on its hop count, to
// the threshold; pass the min-BDP delay here.
func VAISFConfig(minBDPDelay sim.Time) Config {
	c := DefaultConfig(0)
	c.Mechanisms = core.PaperVAISF(float64(minBDPDelay), float64(30*sim.Nanosecond))
	return c
}

// minCwnd is the window floor, packets: below one packet, pacing spaces
// the sends.
const minCwnd = 0.01

// Swift is the per-flow sender state. Create one per flow with New.
type Swift struct {
	cfg Config
	env *cc.Env
	att core.Attachment

	maxCwnd float64 // line-rate window, packets
	aiPkts  float64 // base additive increase, packets per RTT
	cwnd    float64 // packets (classic mode: the live window)
	ref     float64 // reference window, packets (SF mode)

	lastDecrease sim.Time
	cleanRTTs    int // consecutive RTTs with no delay above target (hyper-AI)

	// FBS precomputed coefficients.
	fsAlpha float64
	fsBeta  float64
}

// New returns a Swift instance for the given configuration.
func New(cfg Config) *Swift { return &Swift{cfg: cfg} }

// Cwnd returns the current congestion window in packets (for tests).
func (s *Swift) Cwnd() float64 { return s.cwnd }

// Init implements cc.Algorithm: flows start at line rate.
func (s *Swift) Init(env *cc.Env) cc.Control {
	s.env = env
	s.maxCwnd = cc.BDPBytes(env.LineRateBps, env.BaseRTT) / float64(env.MTU)
	s.aiPkts = cc.BDPBytes(s.cfg.AIBps, env.BaseRTT) / float64(env.MTU)
	s.cwnd = s.maxCwnd
	s.ref = s.maxCwnd
	s.lastDecrease = -env.BaseRTT
	// Token_Thresh = target delay + min-BDP delay (Sec. V-A). The config
	// carries the min-BDP part; add this flow's target.
	s.att = s.cfg.Attach(float64(s.targetDelay(s.maxCwnd)))
	return s.control()
}

// targetDelay computes the flow's target delay with topology-based scaling
// and, when enabled, flow-based scaling for the given window.
func (s *Swift) targetDelay(cwndPkts float64) sim.Time {
	t := baseTarget + sim.Time(len(s.env.HopBps))*perHop
	if maxCwnd := s.cfg.FBSMaxCwnd; maxCwnd > 0 {
		if s.fsAlpha == 0 {
			den := 1/math.Sqrt(fbsMinCwnd) - 1/math.Sqrt(maxCwnd)
			s.fsAlpha = float64(fbsRange) / den
			s.fsBeta = -s.fsAlpha / math.Sqrt(maxCwnd)
		}
		extra := s.fsAlpha/math.Sqrt(cwndPkts) + s.fsBeta
		t += sim.Time(clamp(extra, 0, float64(fbsRange)))
	}
	return t
}

func (s *Swift) control() cc.Control {
	s.cwnd = clamp(s.cwnd, minCwnd, s.maxCwnd)
	w := s.cwnd * float64(s.env.MTU)
	rate := s.env.LineRateBps
	if s.cwnd < 1 {
		// Sub-packet windows are enforced by pacing, as in Swift.
		rate = w * 8 / s.env.BaseRTT.Seconds()
	}
	return cc.Control{WindowBytes: math.Max(w, 1), RateBps: rate}
}

// mdf computes Eq. (1) for the given delay and target.
func (s *Swift) mdf(delay, target sim.Time) float64 {
	if delay <= target || delay <= 0 {
		return 1
	}
	m := 1 - beta*float64(delay-target)/float64(delay)
	return math.Max(m, maxMdf)
}

// OnAck implements cc.Algorithm.
func (s *Swift) OnAck(fb cc.Feedback) cc.Control {
	if s.cfg.SFEvery > 0 {
		return s.onAckSF(fb)
	}
	return s.onAckClassic(fb)
}

// onAckClassic is stock Swift: per-ACK additive increase below target,
// at most one multiplicative decrease per RTT above it.
func (s *Swift) onAckClassic(fb cc.Feedback) cc.Control {
	delay := fb.RTT
	target := s.targetDelay(s.cwnd)
	ended, _ := s.att.Ack(fb.AckedBytes, fb.SentBytes, float64(delay), delay > target)
	s.countClean(ended)
	ai := s.aiPkts * s.hyperAI() * s.att.Multiplier()

	if delay < target {
		ackedPkts := float64(fb.NewlyAcked) / float64(s.env.MTU)
		if s.cwnd >= 1 {
			s.cwnd += ai * ackedPkts / s.cwnd
		} else {
			s.cwnd += float64(ai * ackedPkts)
		}
	} else {
		// At most one decrease per RTT by default; with probabilistic
		// feedback any congested ACK may trigger a decrease, accepted
		// with probability linear in the window (Sec. III-D).
		apply := fb.Now-s.lastDecrease >= fb.RTT
		if s.cfg.Probabilistic {
			apply = s.useFeedback()
		}
		if apply {
			s.cwnd *= s.mdf(delay, target)
			s.lastDecrease = fb.Now
		}
	}
	if ended {
		s.att.Spend()
	}
	return s.control()
}

// onAckSF is Swift with the Sec. V-B changes: an HPCC-style reference
// window whose decreases apply every SFEvery ACKs and whose increases
// apply once per RTT; per-ACK adjustments always derive from the
// reference; and the additive increase is applied on every update
// regardless of congestion (so VAI tokens are always spent).
func (s *Swift) onAckSF(fb cc.Feedback) cc.Control {
	delay := fb.RTT
	target := s.targetDelay(s.ref)
	ended, sfUpdate := s.att.Ack(fb.AckedBytes, fb.SentBytes, float64(delay), delay > target)
	s.countClean(ended)
	ai := float64(s.aiPkts * s.hyperAI() * s.att.Multiplier())
	m := s.mdf(delay, target)
	w := float64(s.ref*m) + ai // per-ACK window from the unchanged reference

	update := ended
	if m < 1 {
		// Decreases fire every SFEvery ACKs: flows holding more
		// bandwidth see more ACKs and shed it faster, while flows whose
		// windows hold fewer than SFEvery packets react less often than
		// once per RTT — the deliberate asymmetry of Sec. III-B. During
		// a mass join (e.g. 96-1 incast) this lets the bottleneck queue
		// transiently exceed what stock Swift would allow, which the
		// per-ACK window (ref*mdf, never above half the reference in
		// deep congestion) bounds.
		update = sfUpdate && (!s.cfg.Probabilistic || s.useFeedback())
	}
	if update {
		if !s.cfg.VAI.IsZero() {
			// The VAI multiplier replaces the hyper-AI term here.
			w = float64(s.ref*m) + float64(s.aiPkts*s.att.Spend())
		}
		s.ref = clamp(w, minCwnd, s.maxCwnd)
	}
	s.cwnd = w
	return s.control()
}

// countClean keeps the hyper-AI count of congestion-free round trips.
func (s *Swift) countClean(ended bool) {
	if ended {
		if s.att.Clean() {
			s.cleanRTTs++
		} else {
			s.cleanRTTs = 0
		}
	}
}

// hyperAI returns the hyper-AI multiplier for the current run of
// congestion-free RTTs.
func (s *Swift) hyperAI() float64 {
	if s.cfg.HAIAfter > 0 && s.cleanRTTs >= s.cfg.HAIAfter {
		return s.cfg.HAIMult
	}
	return 1
}

// useFeedback implements the probabilistic-feedback acceptance rule with
// the per-RTT window as "Current Window".
func (s *Swift) useFeedback() bool {
	ref := s.cwnd
	if s.cfg.SFEvery > 0 {
		ref = s.ref
	}
	return ref >= s.env.Rand.Float64()*s.maxCwnd
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
