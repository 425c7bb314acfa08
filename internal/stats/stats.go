// Package stats provides the statistical primitives the evaluation uses:
// the Jain fairness index, percentile estimation, and piecewise-linear
// CDFs for flow-size distributions.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Jain returns the Jain fairness index (sum x)^2 / (n * sum x^2) of the
// allocation xs (Jain, Chiu & Hawe 1998). It is 1 when all values are
// equal and 1/n when one value holds everything. By convention an empty or
// all-zero allocation is perfectly fair (1).
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// JainByClass computes the Jain index within each class of the allocation
// xs, where class[i] names xs[i]'s class (0 <= class[i] < nClasses).
// Result[c] follows Jain's conventions restricted to class c: a singleton
// class is perfectly fair (its only member equals itself) and an empty or
// all-zero class reports 1. Values and classes must be the same length.
// RTT-heterogeneity experiments use this to tell intra-class fairness
// (flows with equal base RTT sharing equally) from the cross-class
// unfairness the aggregate index mixes in.
func JainByClass(xs []float64, class []int, nClasses int) []float64 {
	if len(xs) != len(class) {
		panic(fmt.Sprintf("stats: JainByClass length mismatch: %d values, %d classes",
			len(xs), len(class)))
	}
	sum := make([]float64, nClasses)
	sumSq := make([]float64, nClasses)
	n := make([]int, nClasses)
	for i, x := range xs {
		c := class[i]
		if c < 0 || c >= nClasses {
			panic(fmt.Sprintf("stats: JainByClass class %d out of [0,%d)", c, nClasses))
		}
		sum[c] += x
		sumSq[c] += float64(x * x)
		n[c]++
	}
	out := make([]float64, nClasses)
	for c := range out {
		if sumSq[c] == 0 {
			out[c] = 1
			continue
		}
		out[c] = sum[c] * sum[c] / (float64(n[c]) * sumSq[c])
	}
	return out
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between order statistics. It does not modify xs and
// panics on an empty slice or out-of-range p, which are programming
// errors.
func Percentile(xs []float64, p float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for data already in ascending order,
// avoiding the copy and sort.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// CDFPoint is one knot of a piecewise-linear CDF: P(X <= Value) = Frac.
type CDFPoint struct {
	Value float64
	Frac  float64 // cumulative probability in [0,1]
}

// CDF is a piecewise-linear cumulative distribution used for flow sizes.
type CDF struct {
	pts []CDFPoint
}

// NewCDF validates and builds a CDF. Points must be finite, strictly
// increasing in Value, nondecreasing in Frac, start at Frac >= 0 and end at
// Frac == 1. (A NaN passes every comparison below by failing it, and one
// NaN or infinite knot makes Mean NaN or infinite.)
func NewCDF(points []CDFPoint) (*CDF, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("stats: CDF needs at least 2 points")
	}
	for i, p := range points {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			return nil, fmt.Errorf("stats: CDF value %v not finite at %d", p.Value, i)
		}
		if !(p.Frac >= 0 && p.Frac <= 1) { // also rejects NaN

			return nil, fmt.Errorf("stats: CDF frac %v out of [0,1] at %d", p.Frac, i)
		}
		if i > 0 {
			if p.Value <= points[i-1].Value {
				return nil, fmt.Errorf("stats: CDF values not increasing at %d", i)
			}
			if p.Frac < points[i-1].Frac {
				return nil, fmt.Errorf("stats: CDF fracs decreasing at %d", i)
			}
		}
	}
	if points[len(points)-1].Frac != 1 {
		return nil, fmt.Errorf("stats: CDF must end at frac 1, got %v",
			points[len(points)-1].Frac)
	}
	pts := make([]CDFPoint, len(points))
	copy(pts, points)
	return &CDF{pts: pts}, nil
}

// MustCDF is NewCDF for static distributions; it panics on error.
func MustCDF(points []CDFPoint) *CDF {
	c, err := NewCDF(points)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws a value by inverse-transform sampling with linear
// interpolation between knots.
func (c *CDF) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	return c.Quantile(u)
}

// Quantile returns the u-quantile (u in [0,1]).
func (c *CDF) Quantile(u float64) float64 {
	pts := c.pts
	if u <= pts[0].Frac {
		return pts[0].Value
	}
	for i := 1; i < len(pts); i++ {
		if u <= pts[i].Frac {
			lo, hi := pts[i-1], pts[i]
			if hi.Frac == lo.Frac {
				return hi.Value
			}
			frac := (u - lo.Frac) / (hi.Frac - lo.Frac)
			return lo.Value + float64(frac*(hi.Value-lo.Value))
		}
	}
	return pts[len(pts)-1].Value
}

// Mean returns the distribution mean (trapezoidal integration over the
// piecewise-linear inverse CDF).
func (c *CDF) Mean() float64 {
	var mean float64
	pts := c.pts
	if pts[0].Frac > 0 {
		mean += float64(pts[0].Frac * pts[0].Value)
	}
	for i := 1; i < len(pts); i++ {
		w := pts[i].Frac - pts[i-1].Frac
		mean += float64(w * (pts[i].Value + pts[i-1].Value) / 2)
	}
	return mean
}

// FracAbove returns P(X > x).
func (c *CDF) FracAbove(x float64) float64 {
	pts := c.pts
	if x < pts[0].Value {
		return 1
	}
	for i := 1; i < len(pts); i++ {
		if x < pts[i].Value {
			lo, hi := pts[i-1], pts[i]
			frac := (x - lo.Value) / (hi.Value - lo.Value)
			return 1 - (lo.Frac + float64(frac*(hi.Frac-lo.Frac)))
		}
	}
	return 0
}

// Max returns the distribution's maximum value.
func (c *CDF) Max() float64 { return c.pts[len(c.pts)-1].Value }
