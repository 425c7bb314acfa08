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

// SampleJain periodically computes the Jain fairness index of the active
// flows' goodput (delivered bytes per interval) from start until until:
// SampleJainClasses with no classes, under the given label.
func SampleJain(nw *net.Network, label string, every, start, until sim.Time) *Series {
	s := SampleJainClasses(nw, nil, nil, every, start, until).All
	s.Label = label
	return s
}

// JainClassSeries is SampleJainClasses' result: the aggregate fairness
// series over all active flows plus one series per class.
type JainClassSeries struct {
	All     *Series
	ByClass []*Series
}

// SampleJainClasses periodically computes Jain fairness of active flows'
// goodput, both aggregate and within each class, from start until until.
// A flow's goodput is its delivered bytes since the previous tick, read
// from the flow's cumulative count against the sampler's own previous
// reading, so any number of samplers can watch one network. Aggregate
// samples are recorded while at least two flows are active, matching how
// the paper plots fairness during incast; a class's series gains a point
// only when that class has at least two active flows. With no labels,
// classOf is never called and only All is sampled.
func SampleJainClasses(nw *net.Network, labels []string, classOf func(*net.Flow) int,
	every, start, until sim.Time) *JainClassSeries {
	out := &JainClassSeries{All: &Series{Label: "all"}}
	for _, l := range labels {
		out.ByClass = append(out.ByClass, &Series{Label: l})
	}
	n := len(labels)
	rates := make([]float64, 0, 64)
	classes := make([]int, 0, 64)
	counts := make([]int, n)
	var prev []int64 // delivered bytes at the previous tick, by AddFlow position
	nw.Eng.Every(start, every, until, func() {
		rates, classes = rates[:0], classes[:0]
		clear(counts)
		prev = append(prev, make([]int64, nw.NumFlows()-len(prev))...)
		for i := range prev {
			f := nw.Flow(i)
			if f.Active() {
				d := f.Delivered()
				rates = append(rates, float64(d-prev[i]))
				prev[i] = d
				if n > 0 {
					cl := classOf(f)
					classes = append(classes, cl)
					counts[cl]++
				}
			} else if f.Started() {
				prev[i] = f.Delivered() // current across finishes
			}
		}
		if len(rates) < 2 {
			return
		}
		now := nw.Eng.Now()
		out.All.Points = append(out.All.Points, Point{T: now, V: stats.Jain(rates)})
		if n == 0 {
			return
		}
		byClass := stats.JainByClass(rates, classes, n)
		for c, s := range out.ByClass {
			if counts[c] >= 2 {
				s.Points = append(s.Points, Point{T: now, V: byClass[c]})
			}
		}
	})
	return out
}

// SampleQueue periodically records a port's egress queue depth in bytes.
func SampleQueue(eng *sim.Engine, port *net.Port, label string, every, start, until sim.Time) *Series {
	s := &Series{Label: label}
	eng.Every(start, every, until, func() {
		s.Points = append(s.Points, Point{T: eng.Now(), V: float64(port.QueueBytes())})
	})
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
// AddFlow order: the one source of per-flow results. It reads the flows
// after the simulation, on the caller's goroutine. Every consumer
// (BucketBySize, SlowdownAbove, StartFinish) orders the records itself.
func CollectFinished(nw *net.Network) []FlowRecord {
	records := make([]FlowRecord, 0, nw.NumFlows())
	for i := range nw.NumFlows() {
		f := nw.Flow(i)
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
