// Package net implements the packet-level network model of the simulator:
// links with serialization and propagation delay, output-queued switches
// with FIFO egress queues, In-band Network Telemetry stamping, and hosts
// running paced, windowed, per-packet-ACKed RDMA-style flows driven
// by a cc.Algorithm.
//
// The model corresponds to the ns-3 + HPCC-artifact setup the paper uses:
// every mechanism the evaluated protocols observe (queue growth,
// serialization, INT, per-packet ACKs) is modeled explicitly; packet
// payloads are not.
package net

import (
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// Kind discriminates packet types.
type Kind uint8

const (
	// Data carries flow payload and collects INT telemetry hop by hop.
	Data Kind = iota
	// Ack acknowledges one data packet, echoing its telemetry and send
	// timestamp.
	Ack
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	}
	return "unknown"
}

// Packet is a simulated packet: 64 bytes, one cache line, with nothing a hop
// needs hanging off it but the flow's path, which all its packets share, and
// the INT slot egress stamping writes. Packets are
// carved from page-aligned chunks (see shard.getPacket), so each is exactly
// its own line. A packet is also its own arrival event (see Fire). Packets
// are pooled by the Network; user code must not retain them after handing
// them off.
//
// What a packet would otherwise carry comes from a line its reader already
// holds: the endpoints and the payload size from the flow's run, which both
// ends read, the payload as Wire less the network's header; the path and
// the INT stack are a pointer each, their lengths the run's hop count.
type Packet struct {
	Kind Kind
	// hop counts the switches this packet has traversed; it is the cursor
	// into path. Pool-reset to zero before every send.
	hop uint8
	// intCap is the depth of the INT stack at ints.
	intCap uint8
	// Wire is the total on-wire bytes (payload + header). int32: wire
	// sizes are bounded by MTU + header.
	Wire int32

	// dest is the port the packet is propagating toward, set before each
	// hop: the argument of the arrival event. A packet is in flight on at
	// most one link at a time, so the one field serves every hop.
	dest *Port

	// path is the first port of the flow's pre-resolved flat path for the
	// packet's direction (forward for data, reverse for ACKs), stamped onto
	// the packet at send time — where the run is already in cache — so
	// switch hops forward with a single indexed load and never touch the
	// run (see Switch.Receive). The hop cursor indexes it.
	path **Port

	_   uint64   // pads the packet to one cache line
	run *flowRun // the run of the flow the packet belongs to

	// ints is the INT stack, intCap records deep: carved with the packet,
	// as deep as the longest flow path, and kept across recycling. A data
	// packet fills it on the forward path — the egress port of its k-th
	// switch stamps record k-1 — and its ACK carries the run's hops records
	// back.
	ints *cc.Telemetry

	// Seq is, on data, the offset of the first payload byte and, on an ACK,
	// the cumulative payload bytes received.
	Seq    int64
	SentAt sim.Time // data: when it left the sender; ack: echo of the same
}

// Fire is the packet's arrival at dest, the event a port schedules when the
// packet leaves its transmitter: the packet is its own sim.Handler, so the
// lane ring holds its address and nothing stands between engine and packet.
// Arrival is the hottest call in the simulator; dispatching on the port's
// concrete owner views makes it a direct call guarded by one nil check.
func (p *Packet) Fire() {
	if d := p.dest; d.ownSw != nil {
		d.ownSw.Receive(p, d)
	} else {
		d.ownHost.Receive(p, d)
	}
}

// next returns the egress port of the packet's next switch: path[hop].
func (p *Packet) next() *Port {
	return *(**Port)(unsafe.Add(unsafe.Pointer(p.path), uintptr(p.hop)*unsafe.Sizeof(p.path)))
}

// stack returns the packet's INT stack, all intCap records of it.
func (p *Packet) stack() []cc.Telemetry { return unsafe.Slice(p.ints, p.intCap) }

// setStack gives the packet the INT stack s.
func (p *Packet) setStack(s []cc.Telemetry) { p.ints, p.intCap = unsafe.SliceData(s), uint8(len(s)) }

// reset clears a pooled packet for reuse, keeping its INT stack.
func (p *Packet) reset() { *p = Packet{ints: p.ints, intCap: p.intCap} }
