package exp

import "testing"

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
	witness(t, lossyFewerDrops, runStar(t, lossyFewerDrops), inSlot[*incastOut](3, 2),
		"default Swift in VAI SF's place")
}
