// Package net implements the packet-level network model of the simulator:
// links with serialization and propagation delay, output-queued switches
// with FIFO egress queues, In-band Network Telemetry stamping, RED/ECN
// marking, optional PFC (priority flow control) for losslessness under
// finite buffers, and hosts running paced, windowed, per-packet-ACKed
// RDMA-style flows driven by a cc.Algorithm.
//
// The model corresponds to the ns-3 + HPCC-artifact setup the paper uses:
// every mechanism the evaluated protocols observe (queue growth,
// serialization, INT, ECN, per-packet ACKs) is modeled explicitly; packet
// payloads are not.
package net

import (
	"faircc/internal/cc"
	"faircc/internal/sim"
)

// Kind discriminates packet types.
type Kind uint8

const (
	// Data carries flow payload and collects INT telemetry hop by hop.
	Data Kind = iota
	// Ack acknowledges one data packet, echoing its telemetry, send
	// timestamp, and (when the receiver's CNP policy fires) an ECE mark.
	Ack
	// Pause and Resume are PFC control frames; they preempt data and are
	// never queued behind it.
	Pause
	Resume
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Pause:
		return "pause"
	case Resume:
		return "resume"
	}
	return "unknown"
}

// Packet is a simulated packet: 128 bytes, two cache lines, with nothing a
// hop needs hanging off them. Packets are carved from page-aligned slabs
// (see shard.getPacket), so each is exactly its own two lines. The first
// holds what a switch hop reads and writes — arrival dispatch, forwarding,
// queueing, transmission; the second the header of the INT stack carved with
// the packet, which egress stamping appends into, and what only the
// endpoints use. A packet is also its own arrival event (see Fire). Packets
// are pooled by the Network; user code must not retain them after handing
// them off.
type Packet struct {
	Kind Kind
	// hop counts the switches this packet has traversed; it is the cursor
	// into path. Pool-reset to zero before every send.
	hop uint8
	ECN bool // congestion-experienced mark set by RED
	ECE bool // ack: congestion echo (CNP)
	// Wire is the total on-wire bytes (payload + header). int32: wire
	// sizes are bounded by MTU + header.
	Wire int32

	// dest is the port the packet is propagating toward, set before each
	// hop: the argument of the arrival event. A packet is in flight on at
	// most one link at a time, so the one field serves every hop.
	dest *Port

	// path is the flow's pre-resolved flat path (forward for data, reverse
	// for ACKs), stamped onto the packet at send time — where the run is
	// already in cache — so switch hops forward with a single indexed load
	// and never touch the run (see Switch.Receive).
	path []*Port

	ingress *Port    // switch-internal: arrival port for PFC accounting
	run     *flowRun // the run of the flow the packet belongs to
	_       [8]byte  // fills the first line, so the second starts at hops

	// The second line. hops is the INT stack collected on the forward path
	// (data) or echoed back (ack): carved with the packet, as deep as the
	// longest flow path, and kept across recycling.
	hops    []cc.Telemetry
	Src     int32    // source host id (for routing)
	Dst     int32    // destination host id (for routing)
	Seq     int64    // data: offset of the first payload byte
	SentAt  sim.Time // data: when it left the sender; ack: echo of the same
	AckSeq  int64    // ack: cumulative payload bytes received
	Payload int32    // payload bytes (0 for control)
}

// Fire is the packet's arrival at dest, the event a port schedules when the
// packet leaves its transmitter: the packet is its own sim.Handler, so the
// lane ring holds its address and nothing stands between engine and packet.
// Arrival is the hottest call in the simulator; dispatching on the port's
// concrete owner views makes it a direct call guarded by one nil check.
func (p *Packet) Fire() {
	if d := p.dest; d.ownSw != nil {
		d.ownSw.Receive(p, d)
	} else if d.ownHost != nil {
		d.ownHost.Receive(p, d)
	} else {
		d.owner.Receive(p, d)
	}
}

// reset clears a pooled packet for reuse, keeping its INT stack.
func (p *Packet) reset() { *p = Packet{hops: p.hops[:0]} }
