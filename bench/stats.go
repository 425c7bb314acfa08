package main

import (
	"math"
	"sort"
)

// summary is the order statistics of one metric over a workload's reps.
// The raw samples are kept beside it in the results file, so a reader can
// recompute every field.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// median returns the middle value of xs (mean of the middle two for an
// even count), or NaN for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile of xs by the exclusive
// method, the one Python's statistics.quantiles(xs, n=4) uses, so the
// spread this benchmark prints is the spread the acceptance driver
// computes. Fewer than two samples have no spread: both quartiles are
// the median.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		// Taken after the clamp, as Python does: with few samples the
		// quartile is extrapolated beyond the end points.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, q3 := quartiles(xs)
	return summary{N: len(xs), Min: sorted(xs)[0], Q1: q1, Median: median(xs), Q3: q3}
}

// spread is the interquartile range as a share of the median, the
// run-to-run variation figure the bounds in BENCHMARK.json are judged
// against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
