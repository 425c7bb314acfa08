package exp

import (
	"slices"
	"testing"
)

// The 16-1 HPCC incast's three claims can each fail: each holds on the
// run's own outputs and is rejected when one baseline's output takes the
// place of the variant it reads. The four simulations run once, at seed 1
// (star runs ignore Scale).
func TestHPCCIncastClaimsWitnesses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.Workers = 1, 1
	outs, err := paperRun("hpcc", 16, nil).run(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		if ok, detail := w.check.holds(outs); !ok {
			t.Errorf("%s: the run fails the claim: %s", w.check.Name, detail)
		}
		swapped := slices.Clone(outs)
		swapped[w.slot] = outs[w.from]
		if ok, detail := w.check.holds(swapped); ok {
			t.Errorf("%s: %s in %s's place passes the claim: %s",
				w.check.Name, outs[w.from].label, outs[w.slot].label, detail)
		}
	}
}
