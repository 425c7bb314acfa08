package exp

import (
	"strings"
	"testing"

	"faircc/internal/net"
	"faircc/internal/topo"
)

// TestAckCoalesceExperiment runs the divergence experiment at small scale:
// both modes of all four protocols must complete, produce paired series,
// and the coalesced mode must actually merge ACKs (the fat-tree workload
// is bidirectional per host, so uplinks carry data and ACKs together —
// exactly the contention coalescing targets).
func TestAckCoalesceExperiment(t *testing.T) {
	cfg := Config{Seed: 1, Scale: "small"}
	res, err := Run("ack-coalesce", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 8 {
		t.Fatalf("series = %d, want 8 (4 protocols x 2 ACK modes)", len(res.Series))
	}
	var perPacket, coalesced int
	for _, s := range res.Series {
		if len(s.X) == 0 {
			t.Fatalf("series %q is empty", s.Label)
		}
		switch {
		case strings.Contains(s.Label, "(per-packet)"):
			perPacket++
		case strings.Contains(s.Label, "(coalesced)"):
			coalesced++
		default:
			t.Fatalf("series %q names no ACK mode", s.Label)
		}
	}
	if perPacket != 4 || coalesced != 4 {
		t.Fatalf("mode split %d/%d, want 4/4", perPacket, coalesced)
	}
	// The pairing notes carry the reverse-path savings; at least one
	// variant must have merged something or the experiment measured
	// nothing.
	merged := false
	for _, n := range res.Notes {
		if strings.Contains(n, "merged") && !strings.Contains(n, "(0 merged") {
			merged = true
		}
	}
	if !merged {
		t.Fatalf("no variant coalesced any ACK; notes: %v", res.Notes)
	}
}

// TestAckCoalesceConfigPlumbing: the Config knob must reach the network —
// an incast with hosts only receiving keeps uplinks idle, so drive the
// fig10 path at small scale and compare run stats across modes.
func TestAckCoalesceConfigPlumbing(t *testing.T) {
	ftCfg, duration, err := dcScale(Config{Seed: 1, Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, Scale: "small"}
	specs, err := dcTraffic(cfg, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	p := dcParams(dcMinBDP(ftCfg), ftCfg.HostBps)
	v := dcVariants(p)[0]

	_, off, err := runDC(cfg, v, ftCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if off.AcksCoalesced != 0 {
		t.Fatalf("coalesced %d ACKs with the knob off", off.AcksCoalesced)
	}
	on := cfg
	on.AckCoalesce = true
	_, st, err := runDC(on, v, ftCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.AcksCoalesced == 0 {
		t.Fatal("knob on but no ACK coalesced on the fat-tree workload")
	}
	if st.AcksSent+st.AcksCoalesced != st.DataDelivered+st.DataOutOfSeq {
		t.Fatalf("ack conservation broke: %+v", st)
	}
	if st.AcksSent >= off.AcksSent {
		t.Fatalf("coalescing did not reduce wire ACKs: %d -> %d", off.AcksSent, st.AcksSent)
	}

	// One more case, on a topology no experiment shares: the knob is applied
	// where every simulation is made, so an experiment that builds its own
	// network cannot miss it the way ablate-newflow used to (it ran
	// per-packet ACKs whatever its Config and manifest said). An incast
	// cannot show that — a receiver's uplink carries nothing but ACKs and
	// never queues one — so two hosts send to each other, and data shares
	// each uplink with the reverse flow's ACKs.
	nw, err := simulate(on, v.label, func(nw *net.Network) {
		star := topo.NewStar(nw, 2, hostRate, linkDelay)
		a, b := star.Hosts[0].NodeID(), star.Hosts[1].NodeID()
		nw.AddFlow(net.FlowSpec{ID: 1, Src: a, Dst: b, Size: 1_000_000}, v.make())
		nw.AddFlow(net.FlowSpec{ID: 2, Src: b, Dst: a, Size: 1_000_000}, v.make())
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := nw.Stats().Counters; c.AcksCoalesced == 0 {
		t.Fatalf("Config.AckCoalesce did not reach a network built outside runDC: %+v", c)
	}
}
