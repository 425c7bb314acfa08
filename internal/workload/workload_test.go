package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"faircc/internal/sim"
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
	hosts := make([]int, 16)
	for i := range hosts {
		hosts[i] = i
	}
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
	load := OfferedLoad(specs, len(hosts), 100e9, cfg.Duration)
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
	hosts := make([]int, 32)
	for i := range hosts {
		hosts[i] = i
	}
	cfg := PoissonConfig{Hosts: hosts, Sizes: nil, Load: 0.5,
		LinkBps: 100e9, Duration: 20 * sim.Millisecond, Seed: 7}
	specs := Mixed(cfg, WebSearch(), Storage())
	load := OfferedLoad(specs, len(hosts), 100e9, cfg.Duration)
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
