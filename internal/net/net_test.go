package net

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// fixedAlgo is a congestion-control stub holding rate and window constant.
// It keeps a copy of its last Env's hop rates and the last ACK's feedback.
type fixedAlgo struct {
	ctl    cc.Control
	acks   int
	hopBps []float64
	last   cc.Feedback
}

func (a *fixedAlgo) Init(env *cc.Env) cc.Control {
	a.hopBps = append(a.hopBps[:0], env.HopBps...)
	return a.ctl
}

func (a *fixedAlgo) OnAck(fb cc.Feedback) cc.Control {
	a.acks++
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
		eng, nw, _ := star(t, 4, 99)
		// Random wire loss makes the finish times depend on the seeded
		// fault stream.
		nw.WireLoss = func(r *rand.Rand, kind Kind, _ int, _ int64) bool {
			return kind == Data && r.Float64() < 0.01
		}
		for i := 1; i <= 3; i++ {
			algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 100_000, RateBps: gbps100}}
			nw.AddFlow(FlowSpec{ID: i, Src: i, Dst: 0, Size: 300_000,
				Start: sim.Time(i) * 5 * usec}, algo)
		}
		eng.Run()
		var fct []sim.Time
		for i := range nw.NumFlows() {
			fct = append(fct, nw.Flow(i).FinishedAt)
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

	// A ring grown to 1024 and drained keeps its length through thousands
	// of single push/pop cycles, which walk the head around it, and stays
	// FIFO across the wrap.
	for i := range 1024 {
		q.Push(&Packet{Wire: int32(i + 1)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if len(q.buf) != 1024 {
		t.Fatalf("ring length %d after growing to 1024 packets, want 1024", len(q.buf))
	}
	q.Push(ps[0])
	for i := 1; i < 5000; i++ {
		q.Push(ps[i%len(ps)])
		if got := q.Pop(); got != ps[(i-1)%len(ps)] {
			t.Fatalf("FIFO violated at cycle %d", i)
		}
		if len(q.buf) != 1024 {
			t.Fatalf("ring length %d after %d push/pop cycles, want 1024", len(q.buf), i)
		}
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
	if len(sw.routes) != 2 {
		t.Fatalf("route table has %d entries after rejected routes, want 2", len(sw.routes))
	}
}

// foreignNode implements Node without being a host or a switch.
type foreignNode struct{}

func (foreignNode) Receive(*Packet, *Port) {}
func (foreignNode) NodeID() int            { return -1 }

// TestConnectOwners: a port's Owner is the switch or the host Connect gave
// it; connecting a host twice, or a Node that is neither, panics.
func TestConnectOwners(t *testing.T) {
	nw := New(sim.NewEngine(), 1)
	h, sw := nw.AddHost(), nw.AddSwitch()
	ps, ph := nw.Connect(sw, h, gbps100, usec)
	if ps.Owner() != Node(sw) || ph.Owner() != Node(h) || sw.Ports()[0] != ps || h.Port() != ph {
		t.Fatal("Connect did not make the switch and the host its ports' owners")
	}
	for name, c := range map[string]struct {
		b    Node
		want string
	}{
		"host connected twice": {h, fmt.Sprintf("host %d connected twice", h.NodeID())},
		"foreign node":         {foreignNode{}, "neither a host nor a switch"},
	} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("%s: Connect panicked with %v, want %q", name, r, c.want)
				}
			}()
			nw.Connect(sw, c.b, gbps100, usec)
		}()
	}
}
