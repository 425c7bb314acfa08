package net

import (
	"fmt"
	"math"
	"unsafe"

	"faircc/internal/sim"
)

// Switch is an output-queued switch: an arriving packet is routed by
// destination host id to an egress port (ECMP-hashed when several are
// configured) and joins that port's FIFO queue. Data packets receive INT
// telemetry when they depart an egress port.
//
// Forwarding state is a dense array indexed by destination host id rather
// than a map. Packets never look it up: routes are fixed at the first flow
// or probe, so a flow's start walks its port sequence once (see
// flowRun.path) and Receive indexes it by hop count. AddFlow never looks it
// up either: it reads the route summaries (see routeSum).
type Switch struct {
	net   *Network
	id    int
	ports []*Port

	// routes[dst] is every egress port the switch may pick toward host dst,
	// in the order AddRoute added them: one for a unique route, an ECMP
	// group for more, none without a route.
	routes [][]*Port
	// sums[dst] summarizes every route toward host dst below this switch;
	// the row is made the first time a check reaches the switch.
	sums []routeSum
}

// NodeID implements Node.
func (s *Switch) NodeID() int { return s.id }

// Ports returns the switch's ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

// AddRoute registers egress ports for a destination host. Multiple ports
// (across one or several calls) form an ECMP group selected by flow hash,
// so every flow keeps a single path and in-order delivery. Candidate order
// is the order ports were added. AddRoute keeps the first call's slice, so
// the caller must not change it afterwards: topology builders pass one
// uplink slice for every destination behind it, which keeps the table one
// slice header per destination. A dstHost that is not a host's id panics,
// and so does any call once the network has a flow or a route summary (see
// routeSum): flows are checked against the summaries and forward by the
// paths their starts resolve, so routes are fixed from the first check on.
func (s *Switch) AddRoute(dstHost int, ports ...*Port) {
	if s.net.numFlows > 0 || s.net.summarized {
		panic("net: AddRoute after AddFlow or ProbePath")
	}
	if len(ports) == 0 {
		return
	}
	for _, p := range ports {
		if p.ownSw != s {
			panic("net: AddRoute with a port not owned by this switch")
		}
	}
	if s.net.findHost(dstHost) == nil {
		panic(fmt.Sprintf("net: AddRoute to %d, which is not a host", dstHost))
	}
	if len(s.routes) <= dstHost {
		// Sized to every host there is: once, when the hosts exist before
		// the routes, as every topology builder adds them.
		s.routes = append(s.routes, make([][]*Port, len(s.net.hostByNode)-len(s.routes))...)
	}
	if g := s.routes[dstHost]; g != nil {
		s.routes[dstHost] = append(g, ports...)
	} else {
		// Clipped, so a later append for this dst cannot scribble on the
		// caller's array.
		s.routes[dstHost] = ports[:len(ports):len(ports)]
	}
}

// Receive implements Node.
func (s *Switch) Receive(p *Packet, _ *Port) {
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
	out.send(p)
}

// members returns every egress port the switch may pick toward dst.
func (s *Switch) members(dst int) []*Port {
	if dst >= len(s.routes) {
		return nil
	}
	return s.routes[dst]
}

// routeSum summarizes a switch's routes toward one destination host over
// every ECMP member below it, whichever a flow's hash picks: whether all of
// them reach the host — no missing route, no loop, no other host, at most
// maxRouteHops switches — and the longest member path's switch hops (this
// switch included) and round trip (see linkRTT), which saturates at the end
// of the clock. Routes are fixed from the first summary on (see AddRoute),
// so a summary never goes stale.
type routeSum struct {
	rtt   sim.Time
	hops  int32
	state routeState
}

type routeState int32

const (
	routeUnknown routeState = iota
	routeWalking            // on the summarizing walk's stack: reaching it again is a loop
	routeOK
	routeBad
)

// maxRouteHops bounds a route's switch hops.
const maxRouteHops = 64

// routeTo returns the switch's summary toward host dst, summarizing the
// switch's whole row on a miss. dst must be a host's id.
func (s *Switch) routeTo(dst int) routeSum {
	if dst >= len(s.sums) || s.sums[dst].state == routeUnknown {
		// Toward every host, in id order: a walk visits the same switches
		// for the next host, whose entries share the cache lines of this
		// one's, where flows in arrival order would miss on every one.
		for _, h := range s.net.hosts {
			s.summarize(h.id)
		}
	}
	return s.sums[dst]
}

// summarize makes the switch's summary toward dst, first those of the
// switches its members lead to: a memoized walk of the route graph, so a
// summary is made once per switch and destination.
func (s *Switch) summarize(dst int) routeSum {
	if m := len(s.net.hostByNode); len(s.sums) < m {
		s.sums = append(s.sums, make([]routeSum, m-len(s.sums))...)
		s.net.summarized = true
	}
	if st := s.sums[dst].state; st != routeUnknown {
		return s.sums[dst]
	}
	s.sums[dst].state = routeWalking
	members := s.members(dst)
	sum := routeSum{state: routeOK}
	if len(members) == 0 {
		sum.state = routeBad
	}
	for _, p := range members {
		below := routeSum{state: routeOK}
		if h := p.peer.ownHost; h != nil {
			if h.id != dst {
				below.state = routeBad
			}
		} else {
			below = p.peer.ownSw.summarize(dst)
		}
		if below.state != routeOK || below.hops >= maxRouteHops {
			sum.state = routeBad
			break
		}
		sum.hops = max(sum.hops, below.hops+1)
		sum.rtt = max(sum.rtt, satAdd(s.net.linkRTT(p), below.rtt))
	}
	s.sums[dst] = sum
	return sum
}

// routeFault names what breaks the switch's route toward dst, whose
// summary is bad, by following bad members down: a missing route, a member
// that reaches another host, a loop, or a path over maxRouteHops switches.
func (s *Switch) routeFault(dst int) error {
	for steps := 0; steps <= len(s.net.switches); steps++ {
		members := s.members(dst)
		if len(members) == 0 {
			return fmt.Errorf("switch %d has no route to host %d", s.id, dst)
		}
		// summarize stopped at the first broken member, so later ones may
		// have no summary: stop at the first broken member here too.
		var next *Switch
		for _, p := range members {
			if h := p.peer.ownHost; h != nil {
				if h.id != dst {
					return fmt.Errorf("switch %d routes traffic for host %d to host %d", s.id, dst, h.id)
				}
				continue
			}
			below := p.peer.ownSw.sums[dst]
			if below.state == routeOK && below.hops >= maxRouteHops {
				return fmt.Errorf("switch %d: route to host %d passes more than %d switches", s.id, dst, maxRouteHops)
			}
			if below.state != routeOK {
				next = p.peer.ownSw
				break
			}
		}
		s = next
	}
	return fmt.Errorf("routing loop toward host %d through switch %d", dst, s.id)
}

// linkRTT is one forward link's share of a base RTT, as Flow.walk sums
// it: propagation and MTU-packet serialization forward, propagation and
// ACK serialization back, saturating at the end of the clock.
func (n *Network) linkRTT(p *Port) sim.Time {
	if p.rtt == 0 {
		rtt := satAdd(p.delay, sim.TransmitTime(n.MTU+n.HeaderBytes, p.bw))
		p.rtt = satAdd(satAdd(rtt, p.delay), sim.TransmitTime(ackBytes, p.bw))
	}
	return p.rtt
}

// satAdd adds two non-negative times, saturating at the end of the clock.
func satAdd(a, b sim.Time) sim.Time {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
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
