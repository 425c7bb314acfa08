// Package cc defines the interface between the network simulator and
// sender-side congestion-control algorithms, together with the feedback
// types (INT telemetry, RTT) those algorithms consume.
//
// The package is a deliberate leaf of the import graph: internal/net
// imports it so data packets can carry telemetry, and the algorithm
// implementations (hpcc, swift, timely) import it for the driver types,
// without either side depending on the other.
package cc

import (
	"math/rand"

	"faircc/internal/sim"
)

// Telemetry is one hop's In-band Network Telemetry (INT) record, stamped by
// a switch when a packet's serialization on an egress port ends: 24 bytes.
// The hop's link rate, INT's fourth field, is a constant of the flow's fixed
// path and comes once, in Env.HopBps. HPCC consumes the fields; delay-based
// protocols ignore them.
type Telemetry struct {
	QueueBytes int64    // egress queue occupancy when the packet's serialization ends, the packet excluded
	TxBytes    int64    // cumulative bytes transmitted on the link, the packet included
	TS         sim.Time // when the packet's serialization ended
}

// Feedback is delivered to an Algorithm once per received acknowledgement.
type Feedback struct {
	Now        sim.Time // current simulated time
	RTT        sim.Time // end-to-end RTT measured for the acked packet
	AckedBytes int64    // cumulative payload bytes acknowledged
	SentBytes  int64    // cumulative payload bytes sent so far (snd_nxt)
	NewlyAcked int      // payload bytes acknowledged by this ACK
	// Hops is the INT stack collected on the forward path, one record per
	// switch, as long as Env.HopBps; nil if absent. It is valid only during
	// OnAck: the stack is recycled with the ACK right after, so an algorithm
	// that keeps records copies them.
	Hops []Telemetry
}

// Control is the sender state an algorithm manipulates: the pacing rate and
// the window limiting bytes in flight. A sender honors both (a packet is
// released only when the pacer allows it and in-flight bytes are below the
// window).
type Control struct {
	WindowBytes float64
	RateBps     float64
}

// Env gives an algorithm access to its environment: flow constants and a
// deterministic PRNG. The simulator keeps a flow's Env in the flow's run
// state and hands Init a pointer to it, valid from Init until the flow
// finishes; an algorithm keeps the pointer, not a copy. Every algorithm is
// ACK-clocked: its control changes only in Init and OnAck.
type Env struct {
	LineRateBps float64
	BaseRTT     sim.Time // propagation + serialization RTT of the flow's path
	MTU         int      // payload bytes per packet
	// HopBps[i] is the link rate of the egress port that stamps Hops[i] of
	// every Feedback: the i-th switch's port on the flow's fixed forward
	// path, so the rate INT would carry is the same on every ACK. Its
	// length is the path's switch hops. Valid while the flow runs.
	HopBps []float64
	Rand   *rand.Rand
}

// Algorithm is a sender-side congestion-control protocol. Implementations
// must be deterministic given Env.Rand.
type Algorithm interface {
	// Init is called once when the flow starts and returns the initial
	// control. RDMA congestion control starts flows at line rate
	// (Sec. III-D of the paper). env stays valid, and unchanged, until the
	// flow finishes.
	Init(env *Env) Control
	// OnAck processes one acknowledgement and returns the updated control.
	OnAck(fb Feedback) Control
}

// BDPBytes returns the bandwidth-delay product of rate bps over rtt, in
// bytes.
func BDPBytes(bps float64, rtt sim.Time) float64 {
	return bps / 8 * rtt.Seconds()
}
