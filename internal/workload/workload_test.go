package workload

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/stats"
)

// The distributions must match the aggregate properties the paper states.

func TestHadoopAggregates(t *testing.T) {
	c := Hadoop()
	if got := 1 - c.FracAbove(300_000); got < 0.94 || got > 0.96 {
		t.Errorf("Hadoop P(<300KB) = %v, want ~0.95", got)
	}
	if got := c.FracAbove(1_000_000); math.Abs(got-0.025) > 0.005 {
		t.Errorf("Hadoop P(>1MB) = %v, want ~0.025", got)
	}
}

func TestWebSearchAggregates(t *testing.T) {
	c := WebSearch()
	if got := c.FracAbove(1_000_000); math.Abs(got-0.30) > 0.02 {
		t.Errorf("WebSearch P(>1MB) = %v, want ~0.30", got)
	}
	if c.Max() < 10_000_000 {
		t.Errorf("WebSearch max %v too small for a long-flow-heavy trace", c.Max())
	}
}

func TestStorageAggregates(t *testing.T) {
	c := Storage()
	if got := 1 - c.FracAbove(128_000); got < 0.95 || got > 0.97 {
		t.Errorf("Storage P(<128KB) = %v, want ~0.96", got)
	}
	if c.Max() > 2_000_000 {
		t.Errorf("Storage max = %v, want <= 2MB (100%% < 2MB)", c.Max())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"hadoop", "websearch", "storage"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should reject unknown names")
	}
}

func TestStaggeredIncast16(t *testing.T) {
	senders := make([]int, 16)
	for i := range senders {
		senders[i] = i
	}
	specs := StaggeredIncast(senders, 16, 1_000_000, 2, 20*sim.Microsecond, 0)
	if len(specs) != 16 {
		t.Fatalf("specs = %d, want 16", len(specs))
	}
	for i, s := range specs {
		if s.Size != 1_000_000 || s.Dst != 16 || s.Src != i {
			t.Fatalf("spec %d wrong: %+v", i, s)
		}
		wantStart := sim.Time(i/2) * 20 * sim.Microsecond
		if s.Start != wantStart {
			t.Fatalf("spec %d start = %v, want %v (two flows every 20us)", i, s.Start, wantStart)
		}
	}
	// Last group starts at 7*20us = 140us.
	if specs[15].Start != 140*sim.Microsecond {
		t.Fatalf("last start = %v, want 140us", specs[15].Start)
	}
	// IDs unique.
	seen := map[int]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate flow id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestPoissonLoadTargeting(t *testing.T) {
	hosts := hostRange(16)
	cfg := PoissonConfig{
		Hosts:    hosts,
		Sizes:    Hadoop(),
		Load:     0.5,
		LinkBps:  100e9,
		Duration: 20 * sim.Millisecond,
		Seed:     1,
	}
	specs := Poisson(cfg)
	if len(specs) == 0 {
		t.Fatal("no flows generated")
	}
	load := OfferedLoad(NewArrivals(cfg, cfg.Sizes), len(hosts), 100e9, cfg.Duration)
	if math.Abs(load-0.5) > 0.1 {
		t.Fatalf("offered load = %v, want ~0.5", load)
	}
	// Arrivals ordered, inside window, valid endpoints.
	var last sim.Time
	for _, s := range specs {
		if s.Start < last {
			t.Fatal("arrivals not time-ordered")
		}
		last = s.Start
		if s.Start >= cfg.Duration {
			t.Fatal("arrival beyond duration")
		}
		if s.Src == s.Dst {
			t.Fatal("self-flow generated")
		}
		if s.Size < 1 {
			t.Fatal("non-positive size")
		}
	}
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	hosts := []int{0, 1, 2, 3}
	cfg := PoissonConfig{Hosts: hosts, Sizes: Storage(), Load: 0.3,
		LinkBps: 100e9, Duration: 5 * sim.Millisecond, Seed: 42}
	a := Poisson(cfg)
	b := Poisson(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs", i)
		}
	}
	cfg.Seed = 43
	c := Poisson(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traffic")
	}
}

// A load so small that the first gap exceeds int64 picoseconds ends
// generation with no flows. The gap used to convert to math.MinInt64, so
// the clock wrapped backwards and Poisson appended specs until the OOM
// killer stopped it.
func TestPoissonTinyLoadTerminates(t *testing.T) {
	flows := make(chan int, 1)
	go func() {
		flows <- len(Poisson(PoissonConfig{Hosts: []int{0, 1}, Sizes: Hadoop(), Load: 1e-30,
			LinkBps: 100e9, Duration: sim.Millisecond, Seed: 1}))
	}()
	select {
	case n := <-flows:
		if n != 0 {
			t.Fatalf("load 1e-30 over 1 ms generated %d flows, want 0", n)
		}
	case <-time.After(time.Second):
		t.Fatal("Poisson at load 1e-30 did not return within 1 s")
	}
}

func TestMixedSplitsLoad(t *testing.T) {
	cfg := PoissonConfig{Hosts: hostRange(32), Sizes: nil, Load: 0.5,
		LinkBps: 100e9, Duration: 20 * sim.Millisecond, Seed: 7}
	specs := NewArrivals(cfg, WebSearch(), Storage()).drain()
	load := OfferedLoad(NewArrivals(cfg, WebSearch(), Storage()), len(cfg.Hosts), 100e9, cfg.Duration)
	if math.Abs(load-0.5) > 0.12 {
		t.Fatalf("mixed offered load = %v, want ~0.5", load)
	}
	// IDs unique across the two halves.
	seen := map[int]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate id %d across mixed halves", s.ID)
		}
		seen[s.ID] = true
	}
	// The storage half pulls the size distribution down: there must be
	// both >1MB flows (websearch) and plenty of <16KB flows (storage).
	big, small := 0, 0
	for _, s := range specs {
		if s.Size > 1_000_000 {
			big++
		}
		if s.Size < 16_000 {
			small++
		}
	}
	if big == 0 || small == 0 {
		t.Fatalf("mixed workload not mixed: big=%d small=%d", big, small)
	}
}

// hostRange returns host ids 0..n-1.
func hostRange(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	return hosts
}

// tiedStarts is a two-stream config at a line rate where arrivals are under
// a picosecond apart, so starts tie within and across the streams.
var tiedStarts = PoissonConfig{Hosts: []int{0, 1}, Load: 0.5, LinkBps: 1e18, Duration: 1000 * sim.Picosecond, Seed: 3}

// NewArrivals yields its two streams merged in start order, with unique ids
// and the first stream's flow first on a tie, so a run adds the flows in
// the order they start.
func TestMixedInStartOrder(t *testing.T) {
	cfg := tiedStarts
	half := cfg
	half.Load, half.Sizes = cfg.Load/2, Storage()
	lastA := len(Poisson(half)) // stream a holds ids 1..lastA
	specs := NewArrivals(cfg, Storage(), Storage()).drain()
	seen := map[int]bool{}
	crossTies := 0
	for i, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate id %d", s.ID)
		}
		seen[s.ID] = true
		if i == 0 {
			continue
		}
		prev := specs[i-1]
		if s.Start < prev.Start {
			t.Fatalf("flow %d starts at %v, before flow %d's %v ahead of it", s.ID, s.Start, prev.ID, prev.Start)
		}
		if s.Start == prev.Start {
			if prev.ID > s.ID {
				t.Fatalf("flows %d and %d tie at %v in id order %d, %d", s.ID, prev.ID, s.Start, prev.ID, s.ID)
			}
			if prev.ID <= lastA && s.ID > lastA {
				crossTies++
			}
		}
	}
	if crossTies == 0 {
		t.Fatal("no start tied across the streams: the tie order went unchecked")
	}
}

// sortedStreams is how two distributions sharing a cluster used to be
// generated, kept as the reference NewArrivals must reproduce: each
// stream's flows at half the load, the second seeded Seed+1 and renumbered
// after the first's, concatenated and stably sorted by start.
func sortedStreams(cfg PoissonConfig, a, b *stats.CDF) []net.FlowSpec {
	half := cfg
	half.Load = cfg.Load / 2
	half.Sizes, half.Seed = a, cfg.Seed
	specsA := Poisson(half)
	half.Sizes, half.Seed = b, cfg.Seed+1
	specsB := Poisson(half)
	for i := range specsB {
		specsB[i].ID += len(specsA)
	}
	specs := append(specsA, specsB...)
	slices.SortStableFunc(specs, func(x, y net.FlowSpec) int { return cmp.Compare(x.Start, y.Start) })
	return specs
}

func TestArrivalsMatchSortedStreams(t *testing.T) {
	for name, c := range map[string]struct {
		cfg  PoissonConfig
		a, b *stats.CDF
	}{
		"cross ties":                {tiedStarts, Storage(), Storage()},
		"websearch+storage 32x20ms": {PoissonConfig{Hosts: hostRange(32), Load: 0.5, LinkBps: 100e9, Duration: 20 * sim.Millisecond, Seed: 1}, WebSearch(), Storage()},
	} {
		want := sortedStreams(c.cfg, c.a, c.b)
		got := NewArrivals(c.cfg, c.a, c.b).drain()
		if len(got) != len(want) {
			t.Fatalf("%s: %d flows, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: flow %d is %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestSampleSizesWithinSupport(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name string
		max  float64
	}{{"hadoop", 10e6}, {"websearch", 30e6}, {"storage", 2e6}} {
		cdf, _ := ByName(c.name)
		for i := 0; i < 10_000; i++ {
			s := cdf.Sample(r)
			if s <= 0 || s > c.max {
				t.Fatalf("%s sample %v outside (0, %v]", c.name, s, c.max)
			}
		}
	}
}

// drain pulls every flow that is left.
func (a *Arrivals) drain() []net.FlowSpec {
	var specs []net.FlowSpec
	for spec, ok := a.Next(); ok; spec, ok = a.Next() {
		specs = append(specs, spec)
	}
	return specs
}

// OfferedLoad drains src and computes the aggregate offered load of its
// flows as a fraction of hosts*linkBps over the duration.
func OfferedLoad(src *Arrivals, hosts int, linkBps float64, duration sim.Time) float64 {
	var bytes int64
	for spec, ok := src.Next(); ok; spec, ok = src.Next() {
		bytes += spec.Size
	}
	return float64(bytes) * 8 / (linkBps * float64(hosts) * duration.Seconds())
}
