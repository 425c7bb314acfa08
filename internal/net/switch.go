package net

import (
	"fmt"
	"unsafe"

	"faircc/internal/sim"
)

// Switch is an output-queued switch: an arriving packet is routed by
// destination host id to an egress port (ECMP-hashed when several are
// configured) and joins that port's FIFO queue. Data packets receive INT
// telemetry when they depart an egress port.
//
// Forwarding state is a dense array indexed by destination host id rather
// than a map. Packets never look it up: routes are fixed at the first flow,
// so a flow's start walks its port sequence once (see flowRun.path) and
// Receive indexes it by hop count.
type Switch struct {
	net   *Network
	sh    *shard // execution shard (shard 0 until Network.Shard rebinds)
	id    int
	ports []*Port

	// fwd[dst] is the sole egress port toward dst (the single-port fast
	// path); nil when dst has an ECMP group (groups[dst], always >= 2
	// candidates) or no route at all.
	fwd    []*Port
	groups [][]*Port
}

// NodeID implements Node.
func (s *Switch) NodeID() int { return s.id }

// Ports returns the switch's ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

// AddRoute registers egress ports for a destination host. Multiple ports
// (across one or several calls) form an ECMP group selected by flow hash,
// so every flow keeps a single path and in-order delivery. Candidate order
// is the order ports were added. A dstHost that is not a host's id panics,
// and so does any call once the network has a flow: flows forward by the
// paths resolved when they were added, so routes are fixed from then on.
func (s *Switch) AddRoute(dstHost int, ports ...*Port) {
	if len(s.net.flows) > 0 {
		panic("net: AddRoute after AddFlow")
	}
	if len(ports) == 0 {
		return
	}
	for _, p := range ports {
		if p.owner != s {
			panic("net: AddRoute with a port not owned by this switch")
		}
	}
	if s.net.findHost(dstHost) == nil {
		panic(fmt.Sprintf("net: AddRoute to %d, which is not a host", dstHost))
	}
	if len(s.fwd) <= dstHost {
		// Sized to every host there is: once, when the hosts exist before
		// the routes, as every topology builder adds them.
		m := len(s.net.hostByNode)
		s.fwd = append(s.fwd, make([]*Port, m-len(s.fwd))...)
		s.groups = append(s.groups, make([][]*Port, m-len(s.groups))...)
	}
	switch {
	case s.fwd[dstHost] == nil && s.groups[dstHost] == nil && len(ports) == 1:
		s.fwd[dstHost] = ports[0]
	case s.fwd[dstHost] == nil && s.groups[dstHost] == nil:
		// First install of a multi-port group: alias the caller's slice,
		// clipped so a later append for this dst cannot scribble on it.
		// Topology builders reuse one uplink slice for every destination
		// behind it, so this keeps route installation O(hosts) in memory.
		s.groups[dstHost] = ports[:len(ports):len(ports)]
	default:
		g := s.groups[dstHost]
		if g == nil {
			g = append(make([]*Port, 0, 1+len(ports)), s.fwd[dstHost])
			s.fwd[dstHost] = nil
		}
		s.groups[dstHost] = append(g, ports...)
	}
}

// Receive implements Node.
func (s *Switch) Receive(p *Packet, in *Port) {
	switch p.Kind {
	case Pause:
		in.pausedBy = true
		s.sh.putPacket(p)
		return
	case Resume:
		in.pausedBy = false
		s.sh.putPacket(p)
		in.kick()
		return
	}
	// The egress port stamps the packet's next INT slot, record hop, one
	// serialization time — thousands of events at fabric scale — from now,
	// in an array last written a hop ago: start that line on its way (no
	// spare slot, no fetch).
	if p.Kind == Data && p.hop < p.intCap {
		sim.Prefetch(unsafe.Add(unsafe.Pointer(p.ints), uintptr(p.hop)*unsafe.Sizeof(*p.ints)))
	}
	// The flow resolved its ECMP choices once at its start and the sender
	// stamped them onto the packet, so forwarding is one indexed load that
	// touches nothing but the packet's line and the path.
	out := p.next()
	p.hop++
	if s.net.PFCPauseBytes > 0 {
		p.ingress = in
		in.chargeIngress(int64(p.Wire))
	}
	out.send(p)
}

// lookupRoute resolves flow flowID's egress port toward dst from the dense
// forwarding table, returning nil when the switch has no route to dst:
// single-port destinations are one load; ECMP groups hash the flow id.
func (s *Switch) lookupRoute(dst, flowID int) *Port {
	if dst < 0 || dst >= len(s.fwd) {
		return nil
	}
	if out := s.fwd[dst]; out != nil {
		return out
	}
	g := s.groups[dst]
	if g == nil {
		return nil
	}
	return g[ecmpHash(flowID, s.id, len(g))]
}

// ecmpHash picks a deterministic per-flow member of an ECMP group. It
// mixes the switch id so consecutive switch layers do not make correlated
// choices.
func ecmpHash(flowID, switchID, n int) int {
	x := uint64(flowID)*0x9e3779b97f4a7c15 ^ uint64(switchID)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int(x % uint64(n))
}
