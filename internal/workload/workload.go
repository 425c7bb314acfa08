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
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

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
	FirstID  int // first flow id to assign (default 1)
}

// Poisson generates flows with exponential inter-arrival times so that the
// expected offered load equals Load * LinkBps * len(Hosts) in aggregate,
// sources drawn uniformly, destinations uniform among the other hosts —
// the standard datacenter-simulation traffic model used by the HPCC
// artifact.
func Poisson(cfg PoissonConfig) []net.FlowSpec {
	if cfg.Load <= 0 || cfg.LinkBps <= 0 || len(cfg.Hosts) < 2 {
		panic("workload: Poisson requires positive load, rate, and >= 2 hosts")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	meanSize := cfg.Sizes.Mean()
	// Aggregate arrival rate (flows/sec) to hit the offered load.
	lambda := cfg.Load * cfg.LinkBps * float64(len(cfg.Hosts)) / (8 * meanSize)
	meanGapSec := 1 / lambda

	id := cfg.FirstID
	if id == 0 {
		id = 1
	}
	var specs []net.FlowSpec
	t := sim.Time(0)
	for {
		// Compared as a float before it becomes a sim.Time: a gap beyond
		// int64 (a tiny load) would convert to math.MinInt64 and wrap t
		// backwards forever. For integer n, trunc(g) >= n iff g >= n, so
		// every gap that converts does so exactly as before.
		gap := r.ExpFloat64() * meanGapSec * float64(sim.Second)
		if gap >= float64(cfg.Duration-t) {
			return specs
		}
		t += sim.Time(gap)
		src := cfg.Hosts[r.Intn(len(cfg.Hosts))]
		dst := src
		for dst == src {
			dst = cfg.Hosts[r.Intn(len(cfg.Hosts))]
		}
		size := int64(math.Max(1, cfg.Sizes.Sample(r)))
		specs = append(specs, net.FlowSpec{
			ID: id, Src: src, Dst: dst, Size: size, Start: t,
		})
		id++
	}
}

// Mixed interleaves two Poisson workloads (e.g. WebSearch and Storage
// sharing a cluster, Sec. VI-A), splitting the load equally between them
// and renumbering flow ids to stay unique. The flows come back in start
// order, a's before b's on a tie, so AddFlow posts every start on the
// engine's lane.
func Mixed(cfg PoissonConfig, a, b *stats.CDF) []net.FlowSpec {
	half := cfg
	half.Load = cfg.Load / 2

	half.Sizes = a
	half.Seed = cfg.Seed
	specsA := Poisson(half)

	half.Sizes = b
	half.Seed = cfg.Seed + 1
	half.FirstID = len(specsA) + 1
	specsB := Poisson(half)

	specs := append(specsA, specsB...)
	slices.SortStableFunc(specs, func(x, y net.FlowSpec) int { return cmp.Compare(x.Start, y.Start) })
	return specs
}

// OfferedLoad computes the aggregate offered load of specs as a fraction
// of hosts*linkBps over the duration (for validating generators).
func OfferedLoad(specs []net.FlowSpec, hosts int, linkBps float64, duration sim.Time) float64 {
	var bytes int64
	for _, s := range specs {
		bytes += s.Size
	}
	return float64(bytes) * 8 / (linkBps * float64(hosts) * duration.Seconds())
}
