package exp

import (
	"slices"
	"testing"

	"faircc/internal/fluid"
)

// witness requires c to hold on outs and to fail once swap has rearranged a
// copy of them; how names the rearrangement.
func witness[E any](t *testing.T, c check[[]E], outs []E, swap func([]E), how string) {
	t.Helper()
	if ok, detail := c.holds(outs); !ok {
		t.Errorf("%s: the run fails the claim: %s", c.Name, detail)
	}
	swapped := slices.Clone(outs)
	swap(swapped)
	if ok, detail := c.holds(swapped); ok {
		t.Errorf("%s: %s passes the claim: %s", c.Name, how, detail)
	}
}

// inSlot is the swap that puts outs[from] in outs[slot]'s place.
func inSlot[E any](slot, from int) func([]E) {
	return func(outs []E) { outs[slot] = outs[from] }
}

// runStar runs, at the given seed, the registered star experiment that
// declares c.
func runStar(t *testing.T, c starCheck, seed int64) []*incastOut {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed, cfg.Workers = seed, 1
	for _, r := range starRuns {
		for _, k := range r.checks {
			if k.Name == c.Name {
				outs, err := r.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return outs
			}
		}
	}
	t.Fatalf("no star experiment declares %s", c.Name)
	return nil
}

// The 16-1 HPCC incast's three claims can each fail: each holds on the
// run's own outputs and is rejected when one baseline's output takes the
// place of the variant it reads. The four simulations run once, at seed 1
// (star runs ignore Scale).
func TestHPCCIncastClaimsWitnesses(t *testing.T) {
	outs := runStar(t, incastInversion, 1)
	const hpcc1G, hpccProb = 1, 2 // hpccBaselines' order
	for _, w := range []struct {
		check      starCheck
		slot, from int // the witness: outs[from] in outs[slot]'s place
	}{
		// HPCC 1Gbps's first-started flow finishes before its last-started.
		{incastInversion, defaultVariant, hpcc1G},
		// HPCC 1Gbps's steady queue is more than 5 KB above the default's.
		{nearZeroQueues, vaisfVariant, hpcc1G},
		// HPCC Probabilistic converges faster than the default, not 2x.
		{hpccConvergence, vaisfVariant, hpccProb},
	} {
		witness(t, w.check, outs, inSlot[*incastOut](w.slot, w.from),
			outs[w.from].label+" in "+outs[w.slot].label+"'s place")
	}
}

// The other star claims can fail too: each holds on its run's own outputs
// and is rejected when a default's output takes VAI SF's place, or when a
// sweep's outputs come in reversed value order.
func TestStarClaimsWitnesses(t *testing.T) {
	reversed := slices.Reverse[[]*incastOut]
	for _, w := range []struct {
		check starCheck
		swap  func([]*incastOut)
		how   string
	}{
		// Each convergence reads the same time twice: 832 us for Swift,
		// 738 us for TIMELY.
		{swiftConvergence, inSlot[*incastOut](vaisfVariant, defaultVariant), "default Swift in VAI SF's place"},
		{timelyConvergence, inSlot[*incastOut](1, 0), "default TIMELY in VAI SF's place"},
		// Reversed, cap 10's slot converges as fast as cap 100's (228 us
		// both), s=5's queues deeper than s=30's (206 against 149 KB),
		// and constant 128's queue is half constant 1's (193 against 387
		// KB).
		{aiCapLatencyFairness, reversed, "the sweep in reversed value order"},
		{sfBandwidthFairness, reversed, "the sweep in reversed value order"},
		{dampenerProtection, reversed, "the sweep in reversed value order"},
	} {
		witness(t, w.check, runStar(t, w.check, 1), w.swap, w.how)
	}
}

// The new-flow corner case can fail: with default HPCC's output in VAI SF's
// place, both settle at 1120 us after the join, and VAI SF is no faster.
func TestNewFlowClaimWitness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.Workers = 1, 1
	outs, err := runNewFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	witness(t, newFlowCornerCase, outs, inSlot[newFlowOut](1, 0), "default HPCC in VAI SF's place")
}

// The fluid-model claim holds on Fig. 4's parameters and fails on any that
// break Sec. IV-B's condition 1/r < (C1+C0)/(s*MTU): with SF decreases 100
// times rarer, or an RTT 30 times shorter, the per-RTT decrease is the
// faster one and no fairness gap opens.
func TestFluidModelClaimWitnesses(t *testing.T) {
	pts, err := fluidRun(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ok, detail := fluidModel.holds(pts); !ok {
		t.Errorf("Fig. 4's parameters fail the claim: %s", detail)
	}
	for _, w := range []struct {
		name string
		set  func(*fluid.Config)
	}{
		{"S=3000", func(c *fluid.Config) { c.S = 3000 }},
		{"RTT=1000", func(c *fluid.Config) { c.RTT = 1000 }},
	} {
		fc := fluid.DefaultConfig()
		w.set(&fc)
		if fc.ConvergesFaster() {
			t.Errorf("%s: the condition still holds", w.name)
		}
		if ok, detail := fluidModel.holds(fluid.Integrate(fc, 500, 3e6)); ok {
			t.Errorf("%s passes the claim: %s", w.name, detail)
		}
	}
}

// Each fat-tree run's claim can fail: it holds on the run's own outputs at
// small scale, seed 1, and is rejected when one variant's output takes the
// place of the variant it reads.
func TestFatTreeClaimsWitnesses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.Workers, cfg.Scale = 1, 1, "small"
	for _, w := range []struct {
		workload   string
		check      check[*dcOut]
		slot, from int // the witness: runs[from] in runs[slot]'s place
	}{
		// Swift's median long-flow slowdown is more than 1.5x HPCC's.
		{"hadoop", medianUnaffected, dcHPCC + 1, dcSwift},
		// Default Swift against itself improves nothing, and HPCC's
		// improvement alone is under 1.5x.
		{"mix", tailFCTHalved, dcSwift + 1, dcSwift},
	} {
		out, err := runFatTree(cfg, w.workload, dcVariants)
		if err != nil {
			t.Fatal(err)
		}
		if ok, detail := w.check.holds(out); !ok {
			t.Errorf("%s: the run fails the claim: %s", w.check.Name, detail)
		}
		swapped := *out
		swapped.runs = slices.Clone(out.runs)
		swapped.runs[w.slot] = out.runs[w.from]
		if ok, detail := w.check.holds(&swapped); ok {
			t.Errorf("%s: %s in %s's place passes the claim: %s",
				w.check.Name, out.vs[w.from].label, out.vs[w.slot].label, detail)
		}
	}
}
