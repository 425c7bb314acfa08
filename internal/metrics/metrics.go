// Package metrics instruments simulations with the measurements the
// paper's figures plot: the Jain fairness index over time, switch queue
// depth over time, and flow-completion-time slowdowns bucketed by flow
// size.
package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/stats"
)

// Point is one time-series sample.
type Point struct {
	T sim.Time
	V float64
}

// Series is a labeled time series (one curve of a figure).
type Series struct {
	Label  string
	Points []Point
}

// Last returns the final sample value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// TimeToReach returns the first sample time at which the series reaches v
// and never drops below it again (convergence time), or -1 if it never
// settles above v.
func (s *Series) TimeToReach(v float64) sim.Time {
	settled := sim.Time(-1)
	for _, p := range s.Points {
		if p.V >= v {
			if settled < 0 {
				settled = p.T
			}
		} else {
			settled = -1
		}
	}
	return settled
}

// SampleJain periodically computes the Jain fairness index of the active
// flows' goodput (delivered bytes per interval) from start until until.
// Samples are recorded only while at least two flows are active, matching
// how the paper plots fairness during incast.
func SampleJain(nw *net.Network, label string, every, start, until sim.Time) *Series {
	s := &Series{Label: label}
	rates := make([]float64, 0, 64)
	var tick func()
	tick = func() {
		now := nw.Eng.Now()
		rates = rates[:0]
		for _, f := range nw.Flows() {
			if f.Active() {
				rates = append(rates, float64(f.TakeDeliveredDelta()))
			} else if f.Started() {
				f.TakeDeliveredDelta() // keep marks current across finishes
			}
		}
		if len(rates) >= 2 {
			s.Points = append(s.Points, Point{T: now, V: stats.Jain(rates)})
		}
		if now+every <= until {
			nw.Eng.After(every, tick)
		}
	}
	nw.Eng.At(start, tick)
	return s
}

// SampleUtilization periodically records a port's link utilization (the
// fraction of capacity transmitted during each interval).
func SampleUtilization(eng *sim.Engine, port *net.Port, label string, every, start, until sim.Time) *Series {
	s := &Series{Label: label}
	capacity := sim.BytesOver(port.Bandwidth(), every)
	var lastTx int64 = -1
	var tick func()
	tick = func() {
		now := eng.Now()
		tx := port.TxBytes()
		if lastTx >= 0 {
			s.Points = append(s.Points, Point{T: now, V: float64(tx-lastTx) / capacity})
		}
		lastTx = tx
		if now+every <= until {
			eng.After(every, tick)
		}
	}
	eng.At(start, tick)
	return s
}

// SampleQueue periodically records a port's egress queue depth in bytes.
func SampleQueue(eng *sim.Engine, port *net.Port, label string, every, start, until sim.Time) *Series {
	s := &Series{Label: label}
	var tick func()
	tick = func() {
		now := eng.Now()
		s.Points = append(s.Points, Point{T: now, V: float64(port.QueueBytes())})
		if now+every <= until {
			eng.After(every, tick)
		}
	}
	eng.At(start, tick)
	return s
}

// FlowRecord captures one finished flow.
type FlowRecord struct {
	ID       int
	Size     int64
	Start    sim.Time
	FCT      sim.Time
	Slowdown float64
}

// CollectFinished returns completion records for every finished flow, in
// AddFlow order. It runs after the simulation instead of inside
// Network.OnFlowFinish, so it is safe for sharded runs (where finish
// callbacks fire on worker goroutines). Every consumer (BucketBySize,
// SlowdownAbove, StartFinish) orders the records itself.
func CollectFinished(nw *net.Network) []FlowRecord {
	records := make([]FlowRecord, 0, len(nw.Flows()))
	for _, f := range nw.Flows() {
		if !f.Finished() {
			continue
		}
		records = append(records, FlowRecord{
			ID:       f.Spec.ID,
			Size:     f.Spec.Size,
			Start:    f.Spec.Start,
			FCT:      f.FCT(),
			Slowdown: f.Slowdown(),
		})
	}
	return records
}

// SizeBucket is one point of a slowdown-versus-size figure: the flows in
// (roughly) one size percentile and the chosen slowdown percentile among
// them.
type SizeBucket struct {
	MaxSize  int64 // largest flow size in the bucket (the x coordinate)
	Count    int
	Slowdown float64
}

// BucketBySize sorts records by flow size, splits them into nBuckets
// equal-count buckets (the paper uses 100, "each data point represents 1%
// of flows"), and reports the pct-percentile slowdown within each bucket.
func BucketBySize(records []FlowRecord, nBuckets int, pct float64) []SizeBucket {
	if nBuckets < 1 {
		panic("metrics: nBuckets must be >= 1")
	}
	if len(records) == 0 {
		return nil
	}
	sorted := make([]FlowRecord, len(records))
	copy(sorted, records)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Size != sorted[j].Size {
			return sorted[i].Size < sorted[j].Size
		}
		return sorted[i].ID < sorted[j].ID
	})
	if nBuckets > len(sorted) {
		nBuckets = len(sorted)
	}
	buckets := make([]SizeBucket, 0, nBuckets)
	slow := make([]float64, 0, len(sorted)/nBuckets+1)
	for b := 0; b < nBuckets; b++ {
		lo := b * len(sorted) / nBuckets
		hi := (b + 1) * len(sorted) / nBuckets
		if lo == hi {
			continue
		}
		slow = slow[:0]
		for _, rec := range sorted[lo:hi] {
			slow = append(slow, rec.Slowdown)
		}
		// Sort the scratch in place and use the Sorted variant: Percentile
		// would copy and re-sort the slice on every one of the (up to 100)
		// bucket calls.
		sort.Float64s(slow)
		buckets = append(buckets, SizeBucket{
			MaxSize:  sorted[hi-1].Size,
			Count:    hi - lo,
			Slowdown: stats.PercentileSorted(slow, pct),
		})
	}
	return buckets
}

// SlowdownAbove returns the pct-percentile slowdown among records with
// Size > minSize (e.g. the long-flow tail the paper's headline reports).
// It returns an error if no flow qualifies.
func SlowdownAbove(records []FlowRecord, minSize int64, pct float64) (float64, error) {
	var xs []float64
	for _, r := range records {
		if r.Size > minSize {
			xs = append(xs, r.Slowdown)
		}
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("metrics: no flows larger than %d bytes", minSize)
	}
	sort.Float64s(xs)
	return stats.PercentileSorted(xs, pct), nil
}

// StartFinish extracts (start, finish) pairs for the staggered-incast
// figures (start time vs finish time, Figs. 2, 3, 8, 9), ordered by start
// time and, among flows starting together (the paper's incast starts two
// per instant), by flow ID — so which flow is "first-started" does not
// depend on the order of records.
func StartFinish(records []FlowRecord) []Point {
	sorted := slices.Clone(records)
	slices.SortFunc(sorted, func(a, b FlowRecord) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	pts := make([]Point, len(sorted))
	for i, r := range sorted {
		pts[i] = Point{T: r.Start, V: (r.Start + r.FCT).Microseconds()}
	}
	return pts
}
