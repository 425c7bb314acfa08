package exp

import (
	"slices"
	"testing"

	"faircc/internal/net"
	"faircc/internal/topo"
)

// TestLossyIncastRecoveryCounters pins the acceptance criterion for the
// lossy-network mode: a fixed-seed lossy incast (nonzero drop probability,
// finite buffers) completes with every flow finished, and the run-level
// stats that land in the manifest carry nonzero drop / retransmit / RTO
// counters. Two runs with the same seed must agree exactly.
func TestLossyIncastRecoveryCounters(t *testing.T) {
	run := func() [6]int64 {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Workers = 1
		res, rs, err := RunWithStats("incast-lossy", cfg)
		if err != nil {
			t.Fatal(err) // a run errors when any flow fails to finish
		}
		if len(res.Series) != 4 {
			t.Fatalf("series = %d, want 4 variants", len(res.Series))
		}
		if rs.DataDrops+rs.AckDrops == 0 {
			t.Fatal("lossy incast recorded zero drops")
		}
		if rs.WireDrops == 0 {
			t.Fatal("nonzero drop probability never lost a packet on the wire")
		}
		if rs.Retransmits == 0 || rs.RTOFires == 0 {
			t.Fatalf("recovery counters: retransmits=%d rto_fires=%d, want both > 0",
				rs.Retransmits, rs.RTOFires)
		}
		if rs.DupAcks == 0 || rs.DataOutOfSeq == 0 {
			t.Fatalf("receiver-side counters: dup_acks=%d out_of_seq=%d, want both > 0",
				rs.DupAcks, rs.DataOutOfSeq)
		}
		return [6]int64{rs.DataDrops, rs.AckDrops, rs.BufferDrops,
			rs.WireDrops, rs.Retransmits, rs.RTOFires}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("lossy incast not deterministic across identical seeds:\n%v\n%v", a, b)
	}
}

// The lossy-fewer-drops claim can fail: with default Swift's output in
// Swift VAI SF's place, drops are not cut and the last finish is no
// earlier, so the check must reject it.
func TestLossyFewerDropsWitness(t *testing.T) {
	witness(t, lossyFewerDrops, runStar(t, lossyFewerDrops, 1), inSlot[*incastOut](3, 2),
		"default Swift in VAI SF's place")
}

// A network whose only loss is a finite buffer recovers what it drops: the
// 16-1 Swift incast at seed 1 with 150 KB on every switch port, no wire
// loss and nothing else set, finishes every flow with the drops and the
// recovery it had when recovery was a setting of its own, switched on.
func TestFiniteBufferAloneRecovers(t *testing.T) {
	buffers := func(_ *net.Network, st *topo.Star) {
		for _, sp := range st.Switch.Ports() {
			sp.SetBuffer(150_000)
		}
	}
	swift := dcVariants(starParams(16))[2]
	out, err := runIncast(Config{Seed: 1}, swift, paperIncast(16), buffers)
	if err != nil {
		t.Fatal(err)
	}
	if st := out.stats; st.BufferDrops != 207 || st.WireDrops != 0 || st.Retransmits != 399 || st.RTOFires != 13 {
		t.Errorf("%d buffer drops, %d wire drops, %d retransmits, %d RTOs; want 207, 0, 399 and 13",
			st.BufferDrops, st.WireDrops, st.Retransmits, st.RTOFires)
	}
}

// lossy-fewer-drops on held-out seeds: its bounds came from seeds 1-10. On
// seeds 11-40 Swift VAI SF still drops at most 0.6x default Swift's buffer
// drops on every seed, but finishes later on seven of them, so the claim,
// checked as -verify checks it, fails there. The failing set is pinned so
// that a change which moves it shows.
func TestLossyFewerDropsHeldOutSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("120 lossy incast runs")
	}
	failing := []int64{11, 20, 22, 31, 33, 39, 40}
	var failed []int64
	for seed := int64(11); seed <= 40; seed++ {
		outs := runStar(t, lossyFewerDrops, seed)
		def, vai := outs[2].stats.BufferDrops, outs[3].stats.BufferDrops
		if float64(vai) > 0.6*float64(def) {
			t.Errorf("seed %d: buffer drops Swift %d, Swift VAI SF %d: above 0.6x", seed, def, vai)
		}
		if ok, _ := lossyFewerDrops.holds(outs); !ok {
			failed = append(failed, seed)
		}
	}
	if !slices.Equal(failed, failing) {
		t.Errorf("lossy-fewer-drops fails on seeds %v of 11-40, want %v", failed, failing)
	}
}
