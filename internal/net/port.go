package net

import (
	"fmt"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// Node is a network element that can receive packets: a Host or a Switch.
type Node interface {
	// Receive is invoked when a packet fully arrives on one of the node's
	// ports.
	Receive(p *Packet, in *Port)
	// NodeID returns the node's network-unique id.
	NodeID() int
}

// Port is one direction-pair endpoint of a link: it owns the egress queue
// and transmitter toward its peer, and is the identity under which
// arriving packets are reported to its owner. Ports are created by
// Network.Connect.
type Port struct {
	net   *Network
	owner Node
	peer  *Port

	// sh/eng are the execution shard the port's owner lives on and that
	// shard's engine (always shard 0 until Network.Shard rebinds). Every
	// event the port schedules — serialization completion, local
	// propagation arrival — goes to eng; pool, PRNG and counter traffic
	// goes to sh. lane is eng's delay lane for this link's propagation
	// delay, the path of every intra-shard arrival (ser holds the lanes of
	// its serialization delays). xmail, nil for intra-shard links, is the
	// mailbox this port hands packets into when its peer lives on a
	// different shard.
	sh    *shard
	eng   *sim.Engine
	lane  *sim.Lane
	xmail *sim.Outbox

	// Concrete views of owner, at most one non-nil: Packet.Fire dispatches
	// arrivals through these instead of the Node interface.
	ownHost *Host
	ownSw   *Switch
	bw      float64  // link bandwidth, bps
	delay   sim.Time // propagation delay

	q        queue
	busy     bool
	pausedBy bool // peer sent PFC Pause: hold data (control still flows)
	// downDepth counts overlapping link-down windows: the transmit
	// direction is down while it is positive, and packets completing
	// serialization then are lost. A depth (rather than a bool) makes
	// overlapping ScheduleFlap windows compose: the link comes back up
	// only when the last open window closes, not when the first one ends.
	downDepth int
	txBytes   int64
	stampINT  bool       // owner is a switch: stamp telemetry on data packets (see finishTx)
	red       *REDConfig // ECN marking at enqueue when set
	bufBytes  int64      // egress buffer cap in wire bytes; 0 = unbounded

	// PFC ingress-side accounting (switch owners only): bytes currently
	// buffered in this node that arrived through this port.
	ingressBytes int64
	pauseSent    bool

	// ser memoizes how the port transmits the two standard wire sizes, a
	// full data packet in ser[0] and an ACK-sized frame in ser[1]: the
	// serialization time of a given size on this link is a constant, so
	// the entry holds eng's delay lane for it, bound the first time the
	// size is sent (see startTx). The two have an entry each because in an
	// all-to-all fabric every egress carries both: a single last-size
	// entry missed on 43.5% of fig10-medium's transmissions (16 322 628
	// of 37 559 472), all but 121 071 of those on a standard-size packet.
	// Wire sizes are never zero, so the zero value can't alias a real
	// entry.
	ser [2]txMemo

	// txPkt is the packet on the wire. The port transmits one packet at a
	// time (startTx sets busy, finishTx clears it), so the port is its own
	// serialization-end event (see Fire) and the packet rides here.
	txPkt *Packet

	// rtt memoizes Network.linkRTT, which every route summary through the
	// port adds; zero until the first.
	rtt sim.Time
}

// txMemo is one entry of Port.ser: a wire size and the lane of its
// serialization time on the port's link.
type txMemo struct {
	wire int32
	lane *sim.Lane
}

// REDConfig is instantaneous-queue RED/ECN marking: packets are marked
// with probability PMax * (q-KMin)/(KMax-KMin) between the thresholds
// (reaching exactly PMax at KMax) and always above KMax, as DCQCN
// configures switches. The occupancy q includes the arriving packet.
// KMax == KMin is a step function: mark with PMax above the threshold.
type REDConfig struct {
	KMinBytes int64
	KMaxBytes int64
	PMax      float64
}

// Owner returns the node the port belongs to.
func (pt *Port) Owner() Node { return pt.owner }

// Peer returns the port at the other end of the link.
func (pt *Port) Peer() *Port { return pt.peer }

// Bandwidth returns the link bandwidth in bits per second.
func (pt *Port) Bandwidth() float64 { return pt.bw }

// Delay returns the link's propagation delay.
func (pt *Port) Delay() sim.Time { return pt.delay }

// QueueBytes returns the egress queue occupancy in bytes.
func (pt *Port) QueueBytes() int64 { return pt.q.Bytes() }

// QueuePeak returns the egress queue's byte high-water mark.
func (pt *Port) QueuePeak() int64 { return pt.q.Peak() }

// TxBytes returns cumulative bytes transmitted on the port.
func (pt *Port) TxBytes() int64 { return pt.txBytes }

// SetRED enables ECN marking on the egress queue. It panics on a config
// that cannot express a marking probability: negative KMin, KMax below
// KMin, or PMax outside (0, 1]. KMax == KMin is a valid step function
// (mark with PMax at and above the threshold).
func (pt *Port) SetRED(cfg REDConfig) {
	if cfg.KMinBytes < 0 || cfg.KMaxBytes < cfg.KMinBytes {
		panic(fmt.Sprintf("net: invalid RED thresholds KMin=%d KMax=%d", cfg.KMinBytes, cfg.KMaxBytes))
	}
	if cfg.PMax <= 0 || cfg.PMax > 1 {
		panic(fmt.Sprintf("net: invalid RED PMax=%g (want 0 < PMax <= 1)", cfg.PMax))
	}
	pt.red = &cfg
}

// SetBuffer caps this egress queue at the given wire bytes: a packet that
// would push the queue past the cap is tail-dropped (PFC control frames are
// exempt). Zero, the default, leaves the queue unbounded.
func (pt *Port) SetBuffer(bytes int64) { pt.bufBytes = bytes }

// send enqueues a packet for transmission toward the peer, tail-dropping
// it when a finite egress buffer is full. PFC control frames are exempt
// from the cap: they are 64 bytes, jump the queue anyway, and dropping
// one would wedge the pause protocol.
func (pt *Port) send(p *Packet) {
	if pt.bufBytes > 0 && p.Kind != Pause && p.Kind != Resume &&
		pt.q.Bytes()+int64(p.Wire) > pt.bufBytes {
		pt.sh.drop(p, true)
		return
	}
	if pt.red != nil && p.Kind == Data {
		pt.markECN(p)
	}
	// Cut-through: with an idle transmitter and an empty queue the packet
	// starts serializing immediately, skipping the FIFO. This is exactly
	// what Push+kick would do (pop the sole entry and transmit it), minus
	// the two ring operations per uncongested hop. send only carries data
	// and ACKs (control frames go through sendControl), so a PFC-paused
	// port always takes the queueing path.
	if !pt.busy && !pt.pausedBy && pt.q.Len() == 0 {
		pt.startTx(p)
		return
	}
	pt.q.Push(p)
	pt.kick()
}

// sendControl enqueues a PFC control frame ahead of any queued data,
// coalescing against a control frame that is still queued so Pause and
// Resume can never reorder on the wire.
//
// A queued-but-not-yet-transmitting control frame is always at the queue
// head: control frames are the only PushFront users and kick pops them
// even while paused, so nothing can get in front of one. Pause and
// Resume strictly alternate per port (pauseSent gates both directions),
// so a queued frame of the opposite kind annihilates with the new one —
// the peer never saw the first frame, and delivering neither leaves it in
// the correct current state. Without this, a Resume PushFronted while a
// Pause was queued behind a busy transmitter overtook it on the wire and
// the peer processed Pause last: paused forever, with pauseSent already
// false so no Resume would ever follow.
func (pt *Port) sendControl(p *Packet) {
	if pt.q.Len() > 0 {
		if head := pt.q.buf[pt.q.head]; head.Kind == Pause || head.Kind == Resume {
			if head.Kind == p.Kind {
				// Duplicate (defensive: alternation should prevent it);
				// the queued frame already says this.
				pt.sh.putPacket(p)
				return
			}
			pt.q.Pop()
			pt.sh.putPacket(head)
			pt.sh.putPacket(p)
			return
		}
	}
	pt.q.PushFront(p)
	pt.kick()
}

func (pt *Port) markECN(p *Packet) {
	// Instantaneous queue including the arriving packet itself, as a real
	// switch (and the DCQCN model) sees it at enqueue time. Sampling
	// before Push meant the first packet into an empty queue could never
	// be marked regardless of thresholds.
	q := pt.q.Bytes() + int64(p.Wire)
	r := pt.red
	if q <= r.KMinBytes {
		return
	}
	prob := 1.0
	switch {
	case r.KMaxBytes == r.KMinBytes:
		// Step config: a single threshold marks with PMax, not the +Inf
		// the ramp formula used to divide its way into.
		prob = r.PMax
	case q <= r.KMaxBytes:
		prob = r.PMax * float64(q-r.KMinBytes) / float64(r.KMaxBytes-r.KMinBytes)
	}
	if pt.sh.rand.Float64() < prob {
		p.Mark = true
		pt.sh.ECNMarks++
	}
}

// kick starts the transmitter if it is idle and transmission is allowed.
func (pt *Port) kick() {
	if pt.busy || pt.q.Len() == 0 {
		return
	}
	if pt.pausedBy {
		// PFC pause stops data; control frames (always at the front)
		// still flow.
		if k := pt.q.buf[pt.q.head].Kind; k != Pause && k != Resume {
			return
		}
	}
	pt.startTx(pt.q.Pop())
}

// startTx puts p on the wire: the transmitter is busy until the port fires
// one serialization time from now. A standard-size packet — a full data packet
// or an ACK-sized frame, all but a fraction of a percent of transmissions —
// finds that time's delay lane in ser, bound on the size's first use; the
// engine registers a ring for the delay if it has one left and otherwise
// hands out a lane that schedules on the heap (propagation delays took
// theirs in Network.Connect, before any packet moved). Any other size is a
// flow's odd-sized tail, one per flow and hundreds of sizes per run: it
// goes to the heap and leaves the memo alone, so it can neither claim a
// ring nor evict a standard size. The event is never cancelled, so it needs
// no EventID.
func (pt *Port) startTx(p *Packet) {
	pt.busy = true
	pt.txPkt = p
	m := &pt.ser[0]
	if p.Kind != Data {
		m = &pt.ser[1]
	}
	if p.Wire != m.wire {
		d := sim.TransmitTime(int(p.Wire), pt.bw)
		if w := int(p.Wire); w != pt.net.MTU+pt.net.HeaderBytes && w != pt.net.AckBytes {
			pt.eng.Schedule(pt.eng.Now()+d, pt)
			return
		}
		*m = txMemo{wire: p.Wire, lane: pt.eng.Lane(d)}
	}
	m.lane.After(pt)
}

// Fire is the end of txPkt's serialization: the port is the sim.Handler
// startTx schedules.
func (pt *Port) Fire() { pt.finishTx(pt.txPkt) }

// finishTx completes serialization: stamps telemetry — at this instant, the
// end of serialization, with the queue as it stands now that p has left it —
// releases PFC ingress accounting, schedules arrival at the peer, and starts
// the next packet.
// When the peer lives on another shard the arrival goes through the
// mailbox instead of the local engine: it executes on the peer's shard
// after the epoch barrier, at the exact same simulated time — propagation
// delay is the lookahead that makes the barrier window safe.
func (pt *Port) finishTx(p *Packet) {
	pt.txPkt = nil
	pt.txBytes += int64(p.Wire)
	if p.Kind == Data && pt.stampINT {
		// The packet's hop-th switch is this port's owner; the sender gave
		// it a stack as deep as its path (see flowRun.trySend).
		p.stack()[p.hop-1] = cc.Telemetry{
			QueueBytes: pt.q.Bytes(),
			TxBytes:    pt.txBytes,
			TS:         pt.eng.Now(),
		}
	}
	if p.ingress != nil {
		p.ingress.creditIngress(int64(p.Wire))
		p.ingress = nil
	}
	if pt.downDepth > 0 || pt.sh.dropInTransit(p) {
		pt.sh.drop(p, false)
		pt.busy = false
		pt.kick()
		return
	}
	p.dest = pt.peer
	if pt.xmail == nil {
		pt.lane.After(p)
	} else {
		pt.xmail.Send(pt.eng.Now()+pt.delay, p)
	}
	pt.busy = false
	pt.kick()
}

// LinkDown reports whether the port's transmit direction is down (at
// least one down window is open).
func (pt *Port) LinkDown() bool { return pt.downDepth > 0 }

// SetLinkDown opens (down=true) or closes (down=false) one link-down
// window on the port's transmit direction; packets that finish
// serialization while any window is open are lost. Windows nest: each
// SetLinkDown(true) must be matched by one SetLinkDown(false), and the
// link is up only when every window has closed — so overlapping
// ScheduleFlap windows keep the link down through their full union. A
// surplus SetLinkDown(false) on an up link is a no-op. The transmitter
// keeps draining either way, so a down window behaves like a span of
// pure loss rather than a stalled queue; packets already propagating
// when the link goes down still arrive.
func (pt *Port) SetLinkDown(down bool) {
	if down {
		pt.downDepth++
		return
	}
	if pt.downDepth > 0 {
		pt.downDepth--
	}
	if pt.downDepth == 0 {
		pt.kick()
	}
}

// ScheduleFlap schedules a link-down window [at, at+duration) on the
// port's transmit direction. Windows nest (see SetLinkDown), so
// overlapping flaps lose packets through their full union. Flows
// crossing the window need Network.LossRecovery to survive it.
// Schedule flaps after Network.Shard: the events must land on the shard
// engine the port ends up bound to.
func (pt *Port) ScheduleFlap(at sim.Time, duration sim.Time) {
	pt.eng.At(at, func() { pt.SetLinkDown(true) })
	pt.eng.At(at+duration, func() { pt.SetLinkDown(false) })
}

// chargeIngress attributes wire bytes buffered in the owner to this
// ingress port and sends a PFC Pause upstream when the threshold is
// crossed.
func (pt *Port) chargeIngress(bytes int64) {
	pt.ingressBytes += bytes
	if th := pt.net.PFCPauseBytes; th > 0 && !pt.pauseSent && pt.ingressBytes >= th {
		pt.pauseSent = true
		pt.sh.PFCPauses++
		pt.sendPFC(Pause)
	}
}

// creditIngress releases buffered bytes and sends Resume when occupancy
// falls below the resume threshold.
func (pt *Port) creditIngress(bytes int64) {
	pt.ingressBytes -= bytes
	if pt.pauseSent && pt.ingressBytes <= pt.net.PFCResumeBytes {
		pt.pauseSent = false
		pt.sendPFC(Resume)
	}
}

func (pt *Port) sendPFC(kind Kind) {
	p := pt.sh.getPacket()
	p.Kind = kind
	p.Wire = pfcFrameBytes
	pt.sendControl(p)
}

const pfcFrameBytes = 64
