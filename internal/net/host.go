package net

import "unsafe"

// Host is an end host with a single network uplink. It sources flows
// (paced and windowed by their congestion-control algorithm) and, as a
// receiver, acknowledges every arriving data packet, echoing INT telemetry
// and the sender timestamp.
type Host struct {
	net  *Network
	sh   *shard // execution shard (shard 0 until Network.Shard rebinds)
	id   int
	port *Port
}

// NodeID implements Node.
func (h *Host) NodeID() int { return h.id }

// Port returns the host's uplink port (nil until connected).
func (h *Host) Port() *Port { return h.port }

// Receive implements Node.
func (h *Host) Receive(p *Packet, _ *Port) {
	if p.Kind == Data {
		h.receiveData(p)
		return
	}
	p.run.onAck(p)
	h.sh.putPacket(p)
}

func (h *Host) receiveData(p *Packet) {
	r := p.run
	if r.dst != h.id {
		panic("net: data packet delivered to wrong host")
	}
	if p.Seq == r.delivered {
		r.delivered += int64(int(p.Wire) - h.net.HeaderBytes)
		h.sh.DataDelivered++
		if r.delivered >= r.size {
			r.flow.DeliveredAt = h.sh.eng.Now()
		}
	} else {
		// Out of sequence: a gap means a drop upstream (go-back-N will
		// refill it), below the cursor is a retransmit overlap. Discard
		// the payload either way — the ACK below re-advertises the
		// cumulative position, which the sender treats as a dup. On
		// lossless paths delivery is FIFO, so this branch never runs and
		// lossless behavior is unchanged.
		h.sh.DataOutOfSeq++
	}

	ack := h.sh.getPacket()
	ack.Kind = Ack
	ack.run = r
	ack.Wire = ackBytes
	ack.Seq = r.delivered
	ack.SentAt = p.SentAt
	// Stamp the reverse flat path while the run is hot in cache; switch
	// hops then forward without touching it (see Packet.path).
	ack.path = unsafe.SliceData(r.path[r.hops:])
	// Echo the collected telemetry by trading INT stacks: the ACK takes the
	// data packet's and the data packet, about to be recycled, the ACK's.
	// Whichever stack a packet holds next, the sender makes sure it is as
	// deep as the path before the packet leaves (see flowRun.trySend).
	ack.ints, p.ints = p.ints, ack.ints
	ack.intCap, p.intCap = p.intCap, ack.intCap
	h.sh.putPacket(p)
	h.sh.AcksSent++
	h.port.send(ack)
}
