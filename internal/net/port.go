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
	net  *Network
	peer *Port

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

	// The port's owner, exactly one non-nil: Packet.Fire dispatches
	// arrivals through these instead of the Node interface, and a switch's
	// ports stamp telemetry on data packets (see finishTx).
	ownHost *Host
	ownSw   *Switch
	bw      float64  // link bandwidth, bps
	delay   sim.Time // propagation delay

	q        queue
	busy     bool
	txBytes  int64
	bufBytes int64 // egress buffer cap in wire bytes; 0 = unbounded

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

// Owner returns the node the port belongs to.
func (pt *Port) Owner() Node {
	if pt.ownSw != nil {
		return pt.ownSw
	}
	return pt.ownHost
}

// attach makes node the port's owner: a switch gains the port, a host
// takes it as its uplink.
func (pt *Port) attach(node Node) {
	switch o := node.(type) {
	case *Switch:
		pt.ownSw = o
		o.ports = append(o.ports, pt)
	case *Host:
		if o.port != nil {
			panic(fmt.Sprintf("net: host %d connected twice", o.id))
		}
		pt.ownHost = o
		o.port = pt
	default:
		panic(fmt.Sprintf("net: Connect to a %T, which is neither a host nor a switch", node))
	}
}

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

// SetBuffer caps this egress queue at the given wire bytes, tail-dropping
// a packet that would push it past the cap, and makes the network lossy.
// A cap below one full data packet, MTU+HeaderBytes, panics.
func (pt *Port) SetBuffer(bytes int64) {
	if full := pt.net.MTU + pt.net.HeaderBytes; bytes < int64(full) {
		panic(fmt.Sprintf("net: SetBuffer(%d) below one %d B data packet", bytes, full))
	}
	pt.bufBytes = bytes
	pt.net.finiteBuffers = true
}

// send enqueues a packet for transmission toward the peer, tail-dropping
// it when a finite egress buffer is full.
func (pt *Port) send(p *Packet) {
	if pt.bufBytes > 0 && pt.q.Bytes()+int64(p.Wire) > pt.bufBytes {
		pt.sh.drop(p, true)
		return
	}
	// Cut-through: with an idle transmitter and an empty queue the packet
	// starts serializing immediately, skipping the FIFO. This is exactly
	// what Push+kick would do (pop the sole entry and transmit it), minus
	// the two ring operations per uncongested hop.
	if !pt.busy && pt.q.Len() == 0 {
		pt.startTx(p)
		return
	}
	pt.q.Push(p)
	pt.kick()
}

// kick starts the transmitter if it is idle and has a packet queued.
func (pt *Port) kick() {
	if pt.busy || pt.q.Len() == 0 {
		return
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
// ring nor evict a standard size.
func (pt *Port) startTx(p *Packet) {
	pt.busy = true
	pt.txPkt = p
	m := &pt.ser[0]
	if p.Kind != Data {
		m = &pt.ser[1]
	}
	if p.Wire != m.wire {
		d := sim.TransmitTime(int(p.Wire), pt.bw)
		if w := int(p.Wire); w != pt.net.MTU+pt.net.HeaderBytes && w != ackBytes {
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
// asks Network.WireLoss whether the wire loses a data packet or ACK,
// schedules arrival at the peer, and starts the next packet.
// When the peer lives on another shard the arrival goes through the
// mailbox instead of the local engine: it executes on the peer's shard
// after the epoch barrier, at the exact same simulated time — propagation
// delay is the lookahead that makes the barrier window safe.
func (pt *Port) finishTx(p *Packet) {
	pt.txPkt = nil
	pt.txBytes += int64(p.Wire)
	if p.Kind == Data && pt.ownSw != nil {
		// The packet's hop-th switch is this port's owner; the sender gave
		// it a stack as deep as its path (see flowRun.trySend).
		p.stack()[p.hop-1] = cc.Telemetry{
			QueueBytes: pt.q.Bytes(),
			TxBytes:    pt.txBytes,
			TS:         pt.eng.Now(),
		}
	}
	if loss := pt.net.WireLoss; loss != nil &&
		loss(pt.sh.faultRand, p.Kind, p.run.flow.Spec.ID, p.Seq) {
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
