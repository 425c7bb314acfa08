package net

import (
	"math/rand"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestTailDropAtFiniteBuffer: a 2:1 overload into a small finite buffer
// must drop, keep the queue capped, and still complete every flow via
// loss recovery, which the buffer alone arms.
func TestTailDropAtFiniteBuffer(t *testing.T) {
	eng, nw, sw := star(t, 3, 1)
	const buf = 20_000
	for _, p := range sw.Ports() {
		p.SetBuffer(buf)
	}
	a1 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	a2 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 200_000, Start: 0}, a1)
	nw.AddFlow(FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 200_000, Start: 0}, a2)
	eng.Run()
	if !nw.AllFinished() {
		t.Fatal("flows did not finish under tail drop + loss recovery")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.BufferDrops == 0 {
		t.Fatal("2:1 overload into a 20 KB buffer never tail-dropped")
	}
	if st.Retransmits == 0 || st.RTOFires == 0 {
		t.Fatalf("recovery counters: retransmits=%d rtoFires=%d, want both > 0",
			st.Retransmits, st.RTOFires)
	}
	if peak := sw.Ports()[0].QueuePeak(); peak > buf {
		t.Fatalf("queue peaked at %d bytes past the %d buffer", peak, buf)
	}
	if st.DataDrops+st.AckDrops != st.BufferDrops+st.WireDrops {
		t.Fatalf("drop breakdowns disagree: %+v", st)
	}
}

// SetBuffer refuses, at the call, a cap that cannot pass one full data
// packet: a negative one, which used to mean unbounded, and one below
// MTU+HeaderBytes, which would drop every data packet. A cap it accepts
// makes the network lossy, and the stall window grows by rtoMax.
func TestSetBufferRefusesCapsBelowAPacket(t *testing.T) {
	const full = 1000 + 48 // MTU+HeaderBytes
	for _, tc := range []struct {
		cap    int64
		refuse bool
	}{{-1, true}, {0, true}, {full - 1, true}, {full, false}, {150_000, false}} {
		_, nw, sw := star(t, 2, 1)
		lossless := nw.StallWindow()
		refused := func() (refused bool) {
			defer func() { refused = recover() != nil }()
			sw.Ports()[0].SetBuffer(tc.cap)
			return false
		}()
		if refused != tc.refuse || nw.lossy() == refused {
			t.Errorf("SetBuffer(%d): refused %v, network lossy %v; want refused %v",
				tc.cap, refused, nw.lossy(), tc.refuse)
		}
		if w := nw.StallWindow(); !refused && w != lossless+rtoMax {
			t.Errorf("SetBuffer(%d): stall window %v, want %v", tc.cap, w, lossless+rtoMax)
		}
	}
}

// TestRTORecoversDroppedDataAndAck: one dropped data packet mid-flow and
// the dropped final ACK both force RTO-driven go-back-N; the flow still
// completes with exact delivery.
func TestRTORecoversDroppedDataAndAck(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	const size = 50_000
	droppedData, droppedAck := false, false
	nw.WireLoss = func(_ *rand.Rand, kind Kind, _ int, seq int64) bool {
		if kind == Data && seq == 5000 && !droppedData {
			droppedData = true
			return true
		}
		// The final cumulative ACK: without it the sender can only finish
		// through a timeout-driven resend.
		if kind == Ack && seq == size && !droppedAck {
			droppedAck = true
			return true
		}
		return false
	}
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 30_000, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: size, Start: 0}, algo)
	eng.Run()
	if !f.Finished() {
		t.Fatal("flow did not recover from a dropped data packet + dropped ACK")
	}
	if !droppedData || !droppedAck {
		t.Fatalf("loss rule never fired: data=%v ack=%v", droppedData, droppedAck)
	}
	if f.Delivered() != size {
		t.Fatalf("delivered = %d, want %d", f.Delivered(), size)
	}
	st := nw.Stats()
	if st.WireDrops != 2 || st.DataDrops != 1 || st.AckDrops != 1 {
		t.Fatalf("drop counters: %+v", st)
	}
	if f.Timeouts < 2 {
		t.Fatalf("timeouts = %d, want >= 2 (one per injected loss)", f.Timeouts)
	}
	if f.Retransmits == 0 || st.Retransmits == 0 {
		t.Fatal("no retransmits recorded")
	}
	if st.DupAcks == 0 || st.DataOutOfSeq == 0 {
		t.Fatalf("receiver-side loss evidence missing: %+v", st)
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomLossCompletes: random data and ACK loss on every link, same
// seed twice — both runs finish, agree bit-for-bit, and leave the
// loss counters nonzero.
func TestRandomLossCompletes(t *testing.T) {
	run := func() ([]sim.Time, NetworkStats) {
		eng, nw, _ := star(t, 3, 7)
		nw.WireLoss = func(r *rand.Rand, _ Kind, _ int, _ int64) bool { return r.Float64() < 0.01 }
		for i := 1; i <= 2; i++ {
			algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 100_000, RateBps: gbps100}}
			nw.AddFlow(FlowSpec{ID: i, Src: i, Dst: 0, Size: 100_000, Start: 0}, algo)
		}
		eng.Run()
		if !nw.AllFinished() {
			t.Fatal("flows did not finish under random loss")
		}
		if err := nw.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		var fct []sim.Time
		for i := range nw.NumFlows() {
			fct = append(fct, nw.Flow(i).FinishedAt)
		}
		return fct, nw.Stats()
	}
	fctA, stA := run()
	fctB, stB := run()
	if stA.WireDrops == 0 {
		t.Fatal("1% loss probability never dropped on a 200-packet workload")
	}
	if stA != stB {
		t.Fatalf("lossy run not deterministic:\n%+v\n%+v", stA, stB)
	}
	for i := range fctA {
		if fctA[i] != fctB[i] {
			t.Fatalf("flow %d finished %v vs %v across identical seeds", i, fctA[i], fctB[i])
		}
	}
}

// outage is a WireLoss rule that loses every data packet completing
// serialization in [from, to) on the network's clock.
func outage(nw *Network, from, to sim.Time) func(*rand.Rand, Kind, int, int64) bool {
	return func(_ *rand.Rand, kind Kind, _ int, _ int64) bool {
		now := nw.Eng.Now()
		return kind == Data && now >= from && now < to
	}
}

// TestOutageRecovery: an outage in the middle of a flow drops every data
// packet serialized during it; the flow times out and completes after the
// outage ends.
func TestOutageRecovery(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	nw.WireLoss = outage(nw, 10*usec, 60*usec)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 100_000, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 500_000, Start: 0}, algo)
	eng.Run()
	if !f.Finished() {
		t.Fatal("flow did not survive a 50 us outage")
	}
	st := nw.Stats()
	if st.WireDrops == 0 {
		t.Fatal("the outage dropped nothing")
	}
	if f.Timeouts == 0 {
		t.Fatal("no RTO fired across the outage")
	}
	if f.Delivered() != 500_000 {
		t.Fatalf("delivered = %d, want 500000", f.Delivered())
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The flow must have lost at least the outage to recovery.
	if f.FCT() < 60*usec {
		t.Fatalf("FCT %v implausibly short for a 50 us outage starting at 10 us", f.FCT())
	}
}

// TestWireLossContract: on a lossy star, WireLoss is asked, with the shard's
// fault stream, once per data packet and once per ACK each time one
// completes serialization — at its sender's host port, then, if the wire
// kept it there, at the switch port. The port asked for is the one whose
// serialization just ended: still busy, with no packet on the wire.
func TestWireLossContract(t *testing.T) {
	eng, nw, sw := star(t, 5, 1)
	ports := sw.Ports()
	for _, h := range nw.Hosts() {
		ports = append(ports, h.Port())
	}
	type tally struct{ asked, lost int64 }
	var atHost, atSwitch [2]tally // by Kind: Data, Ack
	nw.WireLoss = func(r *rand.Rand, kind Kind, _ int, _ int64) bool {
		if r != nw.shards[0].faultRand {
			t.Fatal("WireLoss was not handed the shard's fault stream")
		}
		var ending []*Port
		for _, pt := range ports {
			if pt.busy && pt.txPkt == nil {
				ending = append(ending, pt)
			}
		}
		if len(ending) != 1 {
			t.Fatalf("WireLoss asked while %d ports end a serialization, want 1", len(ending))
		}
		at := &atSwitch[kind]
		if ending[0].ownHost != nil {
			at = &atHost[kind]
		}
		at.asked++
		lost := r.Float64() < 0.01
		if lost {
			at.lost++
		}
		return lost
	}
	for i := 1; i <= 4; i++ { // a 4-1 incast at line rate
		algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
		nw.AddFlow(FlowSpec{ID: i, Src: i, Dst: 0, Size: 400_000, Start: 0}, algo)
	}
	eng.Run()
	if !nw.AllFinished() {
		t.Fatal("flows did not finish under random loss")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if atHost[Data].asked != st.DataSent || atHost[Ack].asked != st.AcksSent {
		t.Fatalf("asked at host ports for %d data packets and %d ACKs, want one per packet sent: %d and %d",
			atHost[Data].asked, atHost[Ack].asked, st.DataSent, st.AcksSent)
	}
	for kind, h := range atHost {
		if s := atSwitch[kind]; s.asked != h.asked-h.lost {
			t.Fatalf("%v: asked %d times at the switch, want once per packet the host port's wire kept: %d",
				Kind(kind), s.asked, h.asked-h.lost)
		}
	}
	lostData, lostAcks := atHost[Data].lost+atSwitch[Data].lost, atHost[Ack].lost+atSwitch[Ack].lost
	if lostData == 0 || lostAcks == 0 {
		t.Fatalf("lost %d data packets and %d ACKs, want some of each", lostData, lostAcks)
	}
	if st.DataDrops != lostData || st.AckDrops != lostAcks || st.WireDrops != lostData+lostAcks {
		t.Fatalf("drop counters %+v, want %d data and %d ACKs lost on the wire", st.Counters, lostData, lostAcks)
	}
}
