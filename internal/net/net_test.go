package net

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// fixedAlgo is a congestion-control stub holding rate and window constant.
// It keeps a copy of its last Env's hop rates and the last ACK's feedback.
type fixedAlgo struct {
	ctl      cc.Control
	acks     int
	eceCount int
	hopBps   []float64
	last     cc.Feedback
}

func (a *fixedAlgo) Init(env *cc.Env) cc.Control {
	a.hopBps = append(a.hopBps[:0], env.HopBps...)
	return a.ctl
}

func (a *fixedAlgo) OnAck(fb cc.Feedback) cc.Control {
	a.acks++
	if fb.ECE {
		a.eceCount++
	}
	a.last = fb
	return a.ctl
}

const (
	gbps100 = 100e9
	usec    = sim.Microsecond
)

// star builds n hosts on one switch, 100G links, 1us propagation.
func star(t *testing.T, nHosts int, seed int64) (*sim.Engine, *Network, *Switch) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng, seed)
	hosts := make([]*Host, nHosts)
	for i := range hosts {
		hosts[i] = nw.AddHost() // ids 0..nHosts-1
	}
	sw := nw.AddSwitch()
	for _, h := range hosts {
		swPort, _ := nw.Connect(sw, h, gbps100, 1*usec)
		sw.AddRoute(h.NodeID(), swPort)
	}
	return eng, nw, sw
}

func TestSingleFlowTiming(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1000, Start: 0}, algo)
	eng.Run()
	if !f.Finished() {
		t.Fatal("flow did not finish")
	}
	// One 1048 B data packet: host serialization 83.84ns + 1us prop +
	// switch serialization 83.84ns + 1us prop; ACK (64 B): 5.12ns + 1us +
	// 5.12ns + 1us. Total 4177.92 ns.
	ser := sim.TransmitTime(1048, gbps100)
	ackSer := sim.TransmitTime(64, gbps100)
	want := 2*ser + 2*ackSer + 4*usec
	if f.FinishedAt != want {
		t.Fatalf("FCT = %v, want %v", f.FinishedAt, want)
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPacketFlowDelivery(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	const size = 1_000_000
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: size, Start: 0}, algo)
	eng.Run()
	if f.Delivered() != size || f.Acked() != size {
		t.Fatalf("delivered=%d acked=%d, want %d", f.Delivered(), f.Acked(), size)
	}
	// 1 MB at ~100G (with 4.8% header overhead) takes ~83.84us plus the
	// path delay; sanity-check within 10%.
	got := f.FCT().Seconds()
	ideal := float64(size+48*1000) * 8 / gbps100
	if got < ideal || got > ideal*1.1+5e-6 {
		t.Fatalf("FCT = %v s, want ~%v s", got, ideal)
	}
	// One ACK per packet reaches the algorithm, except the final one,
	// which completes the flow instead of feeding congestion control.
	if algo.acks != size/1000-1 {
		t.Fatalf("acks = %d, want %d (one per packet, minus the final)", algo.acks, size/1000-1)
	}
}

func TestLastPacketPartial(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 2500, Start: 0}, algo)
	eng.Run()
	if f.Delivered() != 2500 {
		t.Fatalf("delivered = %d, want 2500 (2 full + 1 partial packet)", f.Delivered())
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	// Window of 2 packets: at most 2000 payload bytes in flight.
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 2000, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 100_000, Start: 0}, algo)
	maxInflight := int64(0)
	var watch func()
	watch = func() {
		if f.run != nil && f.run.inflight > maxInflight {
			maxInflight = f.run.inflight
		}
		if !f.finished {
			eng.After(100*sim.Nanosecond, watch)
		}
	}
	eng.At(0, watch)
	eng.Run()
	if maxInflight > 2000 {
		t.Fatalf("inflight reached %d, window is 2000", maxInflight)
	}
	if !f.Finished() {
		t.Fatal("flow did not finish")
	}
}

func TestPacingLimitsRate(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	// Pace at 10G with an open window: 1 MB should take ~10x longer than
	// at line rate.
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: 10e9}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1_000_000, Start: 0}, algo)
	eng.Run()
	ideal := float64(1_000_000+48*1000) * 8 / 10e9
	got := f.FCT().Seconds()
	if math.Abs(got-ideal) > ideal*0.05 {
		t.Fatalf("paced FCT = %v s, want ~%v s", got, ideal)
	}
}

func TestQueueBuildsAtBottleneck(t *testing.T) {
	eng, nw, sw := star(t, 3, 1)
	// Two line-rate senders into one receiver: the receiver's switch port
	// queue must grow to roughly the overload times duration.
	a1 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	a2 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 500_000, Start: 0}, a1)
	nw.AddFlow(FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 500_000, Start: 0}, a2)
	dstPort := sw.Ports()[0] // port toward host 0
	peak := int64(0)
	var watch func()
	watch = func() {
		if q := dstPort.QueueBytes(); q > peak {
			peak = q
		}
		if !nw.AllFinished() {
			eng.After(500*sim.Nanosecond, watch)
		}
	}
	eng.At(0, watch)
	eng.Run()
	// 2x overload for the time to send 500KB at 100G each: queue peaks
	// near 500KB (one flow's worth).
	if peak < 300_000 || peak > 600_000 {
		t.Fatalf("bottleneck queue peak = %d, want ~500KB", peak)
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestINTTelemetryStamped(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 50_000, Start: 0}, algo)
	eng.Run()
	fb := algo.last
	if len(fb.Hops) != 1 {
		t.Fatalf("INT stack depth = %d, want 1 (single switch)", len(fb.Hops))
	}
	h := fb.Hops[0]
	if len(algo.hopBps) != 1 || algo.hopBps[0] != gbps100 {
		t.Fatalf("hop rates = %v, want [100G]", algo.hopBps)
	}
	if h.TxBytes == 0 || h.TS == 0 {
		t.Fatalf("INT counters not stamped: %+v", h)
	}
}

func TestRTTMeasuredAgainstBase(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1000, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 10_000, Start: 0}, algo)
	eng.Run()
	// Window of one packet: no self-queueing, so every measured RTT must
	// equal the base RTT exactly.
	if algo.last.RTT != f.BaseRTT() {
		t.Fatalf("RTT = %v, want base %v", algo.last.RTT, f.BaseRTT())
	}
}

func TestPathInfoStar(t *testing.T) {
	eng, nw, _ := star(t, 2, 1)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1000, Start: 0}, algo)
	eng.Step() // the start, which derives the path constants
	if f.Hops() != 1 {
		t.Fatalf("hops = %d, want 1", f.Hops())
	}
	want := 4*usec + 2*sim.TransmitTime(1048, gbps100) + 2*sim.TransmitTime(64, gbps100)
	if f.BaseRTT() != want {
		t.Fatalf("baseRTT = %v, want %v", f.BaseRTT(), want)
	}
}

func TestECNMarking(t *testing.T) {
	eng, nw, sw := star(t, 3, 1)
	sw.Ports()[0].SetRED(REDConfig{KMinBytes: 10_000, KMaxBytes: 40_000, PMax: 0.2})
	a1 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	a2 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 500_000, Start: 0}, a1)
	nw.AddFlow(FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 500_000, Start: 0}, a2)
	eng.Run()
	ece := a1.eceCount + a2.eceCount
	if ece == 0 {
		t.Fatal("RED never marked despite a 2x overload past KMax")
	}
	// The queue spends most of the run far above KMax, where marking is
	// certain, so the majority of ACKs must carry ECE; but the ramp-up
	// below KMin must leave some unmarked.
	total := a1.acks + a2.acks
	if ece < total/3 || ece >= total {
		t.Fatalf("ece=%d of %d acks; want a majority but not all", ece, total)
	}
}

func TestCNPIntervalRateLimitsECE(t *testing.T) {
	run := func(interval sim.Time) int {
		eng := sim.NewEngine()
		nw := New(eng, 1)
		nw.CNPInterval = interval
		hosts := make([]*Host, 3)
		for i := range hosts {
			hosts[i] = nw.AddHost()
		}
		sw := nw.AddSwitch()
		for _, h := range hosts {
			swPort, _ := nw.Connect(sw, h, gbps100, 1*usec)
			sw.AddRoute(h.NodeID(), swPort)
		}
		// Mark every packet above a tiny threshold.
		sw.Ports()[0].SetRED(REDConfig{KMinBytes: 1, KMaxBytes: 2, PMax: 1})
		a1 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
		a2 := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
		nw.AddFlow(FlowSpec{ID: 1, Src: 1, Dst: 0, Size: 300_000, Start: 0}, a1)
		nw.AddFlow(FlowSpec{ID: 2, Src: 2, Dst: 0, Size: 300_000, Start: 0}, a2)
		eng.Run()
		return a1.eceCount + a2.eceCount
	}
	every := run(0)
	limited := run(20 * usec)
	if limited >= every {
		t.Fatalf("CNP interval did not reduce ECE count: %d vs %d", limited, every)
	}
	if limited == 0 {
		t.Fatal("no CNPs at all with interval set")
	}
}

func TestPFCPausesUpstream(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, 1)
	nw.PFCPauseBytes = 50_000
	nw.PFCResumeBytes = 25_000
	// Dumbbell: h0 -- sw1 -- sw2 -- h1 with a 10G bottleneck between the
	// switches so sw2's ingress from sw1... actually the queue builds at
	// sw1's egress toward sw2; PFC should pause h0's uplink.
	h0 := nw.AddHost()
	h1 := nw.AddHost()
	sw1 := nw.AddSwitch()
	sw2 := nw.AddSwitch()
	s1h, _ := nw.Connect(sw1, h0, gbps100, 1*usec)
	s1s2, s2s1 := nw.Connect(sw1, sw2, 10e9, 1*usec)
	s2h, _ := nw.Connect(sw2, h1, gbps100, 1*usec)
	sw1.AddRoute(h0.NodeID(), s1h)
	sw1.AddRoute(h1.NodeID(), s1s2)
	sw2.AddRoute(h0.NodeID(), s2s1)
	sw2.AddRoute(h1.NodeID(), s2h)

	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: h0.NodeID(), Dst: h1.NodeID(), Size: 2_000_000, Start: 0}, algo)

	peak := int64(0)
	sawPause := false
	var watch func()
	watch = func() {
		if q := s1s2.QueueBytes(); q > peak {
			peak = q
		}
		if h0.port.pausedBy {
			sawPause = true
		}
		if !nw.AllFinished() {
			eng.After(1*usec, watch)
		}
	}
	eng.At(0, watch)
	eng.Run()
	if !sawPause {
		t.Fatal("PFC never paused the host uplink")
	}
	// With PFC the switch buffer stays bounded near the pause threshold
	// (plus one BDP of in-flight slack), far below the 2 MB the flow
	// would otherwise dump at a 10:1 speed mismatch.
	if peak > 200_000 {
		t.Fatalf("sw1->sw2 queue peaked at %d bytes despite PFC", peak)
	}
	if !f.Finished() {
		t.Fatal("flow did not finish under PFC")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	counts := make(map[int]int)
	for flow := 0; flow < 1000; flow++ {
		counts[ecmpHash(flow, 7, 4)]++
	}
	for i := 0; i < 4; i++ {
		if counts[i] < 150 {
			t.Fatalf("ECMP member %d got %d of 1000 flows; want roughly even: %v",
				i, counts[i], counts)
		}
	}
	// Deterministic.
	if ecmpHash(42, 7, 4) != ecmpHash(42, 7, 4) {
		t.Fatal("ecmpHash not deterministic")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []sim.Time {
		eng, nw, sw := star(t, 4, 99)
		sw.Ports()[0].SetRED(REDConfig{KMinBytes: 10_000, KMaxBytes: 100_000, PMax: 0.2})
		for i := 1; i <= 3; i++ {
			algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 100_000, RateBps: gbps100}}
			nw.AddFlow(FlowSpec{ID: i, Src: i, Dst: 0, Size: 300_000,
				Start: sim.Time(i) * 5 * usec}, algo)
		}
		eng.Run()
		var fct []sim.Time
		for _, f := range nw.Flows() {
			fct = append(fct, f.FinishedAt)
		}
		return fct
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic: flow %d finished %v vs %v", i, a[i], b[i])
		}
	}
}

func TestQueueRing(t *testing.T) {
	var q queue
	ps := make([]*Packet, 100)
	for i := range ps {
		ps[i] = &Packet{Wire: int32(i + 1)}
	}
	// Interleaved push/pop across growth boundaries preserves FIFO.
	next := 0
	for i := 0; i < 100; i++ {
		q.Push(ps[i])
		if i%3 == 2 {
			got := q.Pop()
			if got != ps[next] {
				t.Fatalf("FIFO violated at %d", i)
			}
			next++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != ps[next] {
			t.Fatalf("FIFO violated while draining")
		}
		next++
	}
	if q.Bytes() != 0 {
		t.Fatalf("bytes = %d after drain, want 0", q.Bytes())
	}
	if q.Pop() != nil {
		t.Fatal("Pop on empty returned a packet")
	}
}

func TestQueuePushFront(t *testing.T) {
	var q queue
	a, b, c := &Packet{Wire: 1}, &Packet{Wire: 2}, &Packet{Wire: 3}
	q.Push(a)
	q.Push(b)
	q.PushFront(c)
	if got := q.Pop(); got != c {
		t.Fatal("PushFront packet not at head")
	}
	if q.Pop() != a || q.Pop() != b {
		t.Fatal("FIFO order broken after PushFront")
	}
}

func TestQueuePeak(t *testing.T) {
	var q queue
	q.Push(&Packet{Wire: 100})
	q.Push(&Packet{Wire: 100})
	q.Pop()
	if q.Peak() != 200 {
		t.Fatalf("peak = %d, want 200", q.Peak())
	}
}

func TestAddFlowValidation(t *testing.T) {
	_, nw, _ := star(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size flow must panic")
		}
	}()
	nw.AddFlow(FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 0}, &fixedAlgo{})
}

// A route is to a host. A switch's id, a negative id, and one far past every
// node (which a table grown to fit it would take the process's memory for)
// panic with the id named, and leave the table as it was.
func TestAddRouteRejectsNonHosts(t *testing.T) {
	_, _, sw := star(t, 2, 1)
	port := sw.Ports()[0]
	for _, id := range []int{sw.NodeID(), -1, math.MaxInt32} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprint(id); !strings.Contains(msg, want) {
					t.Errorf("AddRoute(%d) panicked with %q, want a message naming %s", id, msg, want)
				}
			}()
			sw.AddRoute(id, port)
		}()
	}
	if len(sw.fwd) != 2 {
		t.Fatalf("route table has %d entries after rejected routes, want 2", len(sw.fwd))
	}
}
