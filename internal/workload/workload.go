// Package workload generates the traffic the paper evaluates on: the
// staggered incast microbenchmarks (Sec. III-D: 16-1 and Sec. VI: 96-1,
// two flows starting every 20 us, 1 MB each) and Poisson-arrival
// datacenter traffic drawn from three flow-size distributions at a target
// load (Sec. VI-A: 50% for 50 ms).
//
// The published traces themselves are not redistributable, so the
// distributions here are synthetic piecewise-linear CDFs matching every
// aggregate property the paper states about them:
//
//   - Facebook Hadoop: 95% of flows < 300 KB, 2.5% > 1 MB;
//   - Microsoft WebSearch: many long flows, 30% > 1 MB;
//   - Alibaba storage: almost exclusively small, 96% < 128 KB, 100% < 2 MB.
//
// Their shapes follow the published DCTCP / HPCC-artifact distributions.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/stats"
)

// Hadoop returns the Facebook-Hadoop-like flow size CDF (bytes).
func Hadoop() *stats.CDF {
	return stats.MustCDF([]stats.CDFPoint{
		{Value: 250, Frac: 0.10},
		{Value: 500, Frac: 0.25},
		{Value: 1_000, Frac: 0.40},
		{Value: 10_000, Frac: 0.63},
		{Value: 30_000, Frac: 0.75},
		{Value: 100_000, Frac: 0.88},
		{Value: 300_000, Frac: 0.95},
		{Value: 1_000_000, Frac: 0.975},
		{Value: 5_000_000, Frac: 0.993},
		{Value: 10_000_000, Frac: 1},
	})
}

// WebSearch returns the Microsoft-WebSearch-like flow size CDF (bytes),
// the long-flow-heavy DCTCP distribution: 30% of flows exceed 1 MB.
func WebSearch() *stats.CDF {
	return stats.MustCDF([]stats.CDFPoint{
		{Value: 6_000, Frac: 0.15},
		{Value: 13_000, Frac: 0.20},
		{Value: 19_000, Frac: 0.30},
		{Value: 33_000, Frac: 0.40},
		{Value: 53_000, Frac: 0.53},
		{Value: 133_000, Frac: 0.60},
		{Value: 667_000, Frac: 0.67},
		{Value: 1_000_000, Frac: 0.70},
		{Value: 2_000_000, Frac: 0.80},
		{Value: 5_000_000, Frac: 0.90},
		{Value: 10_000_000, Frac: 0.97},
		{Value: 30_000_000, Frac: 1},
	})
}

// Storage returns the Alibaba-storage-like flow size CDF (bytes): almost
// exclusively small flows.
func Storage() *stats.CDF {
	return stats.MustCDF([]stats.CDFPoint{
		{Value: 1_000, Frac: 0.20},
		{Value: 4_000, Frac: 0.45},
		{Value: 16_000, Frac: 0.70},
		{Value: 64_000, Frac: 0.90},
		{Value: 128_000, Frac: 0.96},
		{Value: 512_000, Frac: 0.99},
		{Value: 2_000_000, Frac: 1},
	})
}

// ByName returns a distribution by its experiment label.
func ByName(name string) (*stats.CDF, error) {
	switch name {
	case "hadoop":
		return Hadoop(), nil
	case "websearch":
		return WebSearch(), nil
	case "storage":
		return Storage(), nil
	}
	return nil, fmt.Errorf("workload: unknown distribution %q", name)
}

// StaggeredIncast builds the paper's incast pattern: senders hosts
// (senders[i] -> dst), size bytes each, perGroup flows starting together
// every interval beginning at start. The 16-1 pattern is 16 senders, 1 MB,
// 2 per 20 us group.
func StaggeredIncast(senders []int, dst int, size int64, perGroup int, interval sim.Time, start sim.Time) []net.FlowSpec {
	if perGroup < 1 {
		panic("workload: perGroup must be >= 1")
	}
	specs := make([]net.FlowSpec, 0, len(senders))
	for i, src := range senders {
		specs = append(specs, net.FlowSpec{
			ID:    i + 1,
			Src:   src,
			Dst:   dst,
			Size:  size,
			Start: start + sim.Time(i/perGroup)*interval,
		})
	}
	return specs
}

// PoissonConfig drives random datacenter traffic generation.
type PoissonConfig struct {
	Hosts    []int      // host ids that source and sink traffic
	Sizes    *stats.CDF // flow size distribution, bytes
	Load     float64    // fraction of per-host line rate, e.g. 0.5
	LinkBps  float64    // host line rate
	Duration sim.Time   // arrival window
	Seed     int64
}

// Poisson is NewArrivals(cfg, cfg.Sizes) drained into a slice.
func Poisson(cfg PoissonConfig) []net.FlowSpec {
	var specs []net.FlowSpec
	a := NewArrivals(cfg, cfg.Sizes)
	for spec, ok := a.Next(); ok; spec, ok = a.Next() {
		specs = append(specs, spec)
	}
	return specs
}

// CheckSizes rejects a flow-size distribution whose mean is below one byte:
// sizes are clamped to at least 1 B, and at a mean of 0 or below every
// Poisson gap is 0 or negative, so the clock never leaves the window.
func CheckSizes(sizes *stats.CDF) error {
	if m := sizes.Mean(); !(m >= 1) {
		return fmt.Errorf("workload: mean flow size %v B is below 1 B", m)
	}
	return nil
}

// Arrivals is a pull source of datacenter traffic: one Poisson stream per
// flow-size distribution, each drawn as it is pulled, merged in start order
// with the lower stream first on a tie.
type Arrivals struct{ streams []stream }

// stream is one Poisson process; head is the flow it yields next, while live.
type stream struct {
	cfg        PoissonConfig
	r          *rand.Rand
	meanGapSec float64
	head       net.FlowSpec
	live       bool
}

// NewArrivals draws flows with exponential inter-arrival times, so that the
// expected offered load is cfg.Load * LinkBps * len(Hosts), sources uniform
// and destinations uniform among the other hosts (the HPCC artifact's
// model). Distribution i of sizes (cfg.Sizes is ignored) is a stream with an
// equal share of the load, seed cfg.Seed+i, and ids after the earlier
// streams', from 1: a counting pass over each earlier
// stream's RNG, O(n) draws and no memory, finds where they end. It panics on
// a load, rate or host count nothing can run, or on sizes CheckSizes rejects.
func NewArrivals(cfg PoissonConfig, sizes ...*stats.CDF) *Arrivals {
	if !(cfg.Load > 0) || cfg.LinkBps <= 0 || len(cfg.Hosts) < 2 || len(sizes) == 0 {
		panic("workload: arrivals require positive load, rate, >= 2 hosts and a size distribution")
	}
	a := &Arrivals{streams: make([]stream, len(sizes))}
	id := 1
	for i, c := range sizes {
		if err := CheckSizes(c); err != nil {
			panic(err)
		}
		sc := cfg
		sc.Sizes, sc.Load, sc.Seed = c, cfg.Load/float64(len(sizes)), cfg.Seed+int64(i)
		a.streams[i] = newStream(sc, id)
		if i < len(sizes)-1 {
			for s := newStream(sc, id); s.live; s.advance() {
				id++
			}
		}
	}
	return a
}

func newStream(cfg PoissonConfig, firstID int) stream {
	// Aggregate arrival rate (flows/sec) to hit the offered load.
	lambda := cfg.Load * cfg.LinkBps * float64(len(cfg.Hosts)) / (8 * cfg.Sizes.Mean())
	s := stream{cfg: cfg, r: rand.New(rand.NewSource(cfg.Seed)), meanGapSec: 1 / lambda, head: net.FlowSpec{ID: firstID - 1}}
	s.advance()
	return s
}

// advance draws the stream's next flow into head, or ends the stream at the
// first gap that leaves the arrival window.
func (s *stream) advance() {
	// Compared as a float before it becomes a sim.Time: a gap beyond int64
	// (a tiny load) would convert to math.MinInt64 and wrap the clock back.
	gap := s.r.ExpFloat64() * s.meanGapSec * float64(sim.Second)
	if s.live = gap < float64(s.cfg.Duration-s.head.Start); !s.live {
		return
	}
	src := s.cfg.Hosts[s.r.Intn(len(s.cfg.Hosts))]
	dst := src
	for dst == src {
		dst = s.cfg.Hosts[s.r.Intn(len(s.cfg.Hosts))]
	}
	size := int64(math.Max(1, s.cfg.Sizes.Sample(s.r)))
	s.head = net.FlowSpec{ID: s.head.ID + 1, Src: src, Dst: dst, Size: size, Start: s.head.Start + sim.Time(gap)}
}

// Next yields the flow that starts first among the streams' heads, or false
// once every stream has left the window.
func (a *Arrivals) Next() (spec net.FlowSpec, ok bool) {
	var first *stream
	for i := range a.streams {
		if s := &a.streams[i]; s.live && (first == nil || s.head.Start < first.head.Start) {
			first = s
		}
	}
	if ok = first != nil; ok {
		spec = first.head
		first.advance()
	}
	return spec, ok
}
