// Package fluid implements the paper's Sec. IV-B fluid model comparing
// Sampling Frequency's multiplicative decrease with a once-per-RTT
// decrease (Figure 4).
//
// Two flows start at unequal rates C1 > C0 (bytes per nanosecond). Under
// per-RTT decreases each rate obeys
//
//	R_i'(t) = -beta * R_i(t) / r
//
// while under Sampling Frequency the decrease frequency scales with the
// flow's own rate (more ACKs means more decreases), giving
//
//	S_i'(t) = -beta * S_i(t)^2 / (s * MTU)
//
// The fairness gap (R1-R0) - (S1-S0) is positive when SF converges faster;
// Sec. IV-B derives the condition 1/r < (C1+C0)/(s*MTU) for the gap to
// grow at t=0.
package fluid

import "math"

// Config holds the fluid-model parameters. Rates are in bytes per
// nanosecond and times in nanoseconds, following the paper's Fig. 4 units.
type Config struct {
	RTT  float64 // r: observed network RTT, ns (30,000 in Fig. 4)
	MTU  float64 // packet size, bytes (1,000)
	S    float64 // s: ACKs between SF decreases (30)
	Beta float64 // multiplicative decrease factor (0.5)
	C1   float64 // initial rate of flow 1, bytes/ns (100 Gb/s = 12.5)
	C0   float64 // initial rate of flow 0, bytes/ns (50 Gb/s = 6.25)
}

// DefaultConfig returns the exact Fig. 4 parameters: r = 30,000 ns,
// MTU = 1,000 B, s = 30, beta = 0.5, initial rates 100 and 50 Gb/s.
func DefaultConfig() Config {
	return Config{RTT: 30000, MTU: 1000, S: 30, Beta: 0.5, C1: 12.5, C0: 6.25}
}

// GbpsToBytesPerNs converts a rate in Gb/s to the model's bytes/ns unit.
func GbpsToBytesPerNs(gbps float64) float64 { return gbps / 8 }

// RateRTT returns the closed-form per-RTT-decrease rate at time t (ns)
// from initial rate c: exponential decay c * exp(-beta*t/r).
func (cfg Config) RateRTT(c, t float64) float64 {
	return float64(c * math.Exp(-cfg.Beta*t/cfg.RTT))
}

// RateSF returns the closed-form Sampling Frequency rate at time t from
// initial rate c: the solution of S' = -k S^2 with k = beta/(s*MTU),
// namely c / (1 + k*c*t).
func (cfg Config) RateSF(c, t float64) float64 {
	k := cfg.Beta / (cfg.S * cfg.MTU)
	return c / (1 + float64(k*c*t))
}

// FairnessGap returns (R1(t)-R0(t)) - (S1(t)-S0(t)), the quantity Fig. 4
// plots. Positive values mean SF has converged closer to fairness than the
// per-RTT decrease at time t.
func (cfg Config) FairnessGap(t float64) float64 {
	r := cfg.RateRTT(cfg.C1, t) - cfg.RateRTT(cfg.C0, t)
	s := cfg.RateSF(cfg.C1, t) - cfg.RateSF(cfg.C0, t)
	return r - s
}

// ConvergesFaster reports the paper's derived condition for SF to gain
// fairness faster than per-RTT decreases at t = 0:
// 1/r < (C1+C0)/(s*MTU).
func (cfg Config) ConvergesFaster() bool {
	return 1/cfg.RTT < (cfg.C1+cfg.C0)/(cfg.S*cfg.MTU)
}

// Point is one integration sample.
type Point struct {
	T   float64 // ns
	Gap float64 // bytes/ns
	R1  float64
	R0  float64
	S1  float64
	S0  float64
}

// Integrate solves the two ODE systems numerically with fourth-order
// Runge-Kutta at step dt up to tMax, recording every sample. It exists
// both to regenerate Fig. 4 and to cross-check the closed forms.
func Integrate(cfg Config, dt, tMax float64) []Point {
	if dt <= 0 || tMax <= 0 {
		panic("fluid: dt and tMax must be positive")
	}
	k := cfg.Beta / (cfg.S * cfg.MTU)
	dR := func(x float64) float64 { return -cfg.Beta * x / cfg.RTT }
	dS := func(x float64) float64 { return -k * x * x }

	r1, r0, s1, s0 := cfg.C1, cfg.C0, cfg.C1, cfg.C0
	n := int(tMax/dt) + 1
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		pts = append(pts, Point{T: t, Gap: (r1 - r0) - (s1 - s0), R1: r1, R0: r0, S1: s1, S0: s0})
		r1 = rk4(r1, dt, dR)
		r0 = rk4(r0, dt, dR)
		s1 = rk4(s1, dt, dS)
		s0 = rk4(s0, dt, dS)
	}
	return pts
}

func rk4(x, dt float64, f func(float64) float64) float64 {
	k1 := f(x)
	k2 := f(x + float64(dt/2*k1))
	k3 := f(x + float64(dt/2*k2))
	k4 := f(x + float64(dt*k3))
	return x + float64(dt/6*(k1+2*k2+2*k3+k4))
}
