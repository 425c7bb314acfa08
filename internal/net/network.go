package net

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// Network assembles hosts, switches, links and flows over a sim.Engine.
// Construction order: create nodes, Connect them, add switch routes,
// optionally Shard for parallel execution, then AddFlow. The network is
// deterministic for a fixed (seed, shard count): unsharded it is
// single-threaded; sharded it runs one goroutine per shard under
// sim.Parallel with all mutable execution state partitioned (see shard).
type Network struct {
	Eng  *sim.Engine
	seed int64

	// MTU is the payload bytes per full data packet (1000, as in the
	// paper's fluid model and the HPCC artifact).
	MTU int
	// HeaderBytes is added to every data packet on the wire.
	HeaderBytes int
	// AckBytes is the wire size of an acknowledgement.
	AckBytes int

	// PFCPauseBytes enables priority flow control when positive: an
	// ingress port that has at least this many bytes buffered in the node
	// pauses its upstream sender. Zero (the default) disables PFC;
	// queues are unbounded and the network is lossless by construction.
	PFCPauseBytes int64
	// PFCResumeBytes is the occupancy at which a paused upstream resumes.
	PFCResumeBytes int64

	// CNPInterval rate-limits congestion echoes per flow at the receiver
	// (DCQCN's CNP timer). Zero echoes every ECN-marked packet.
	CNPInterval sim.Time

	// BufferBytes, when positive, caps every egress queue: a packet whose
	// wire bytes would push the queue past the limit is tail-dropped
	// (PFC control frames are exempt — dropping them would deadlock the
	// fabric). Zero keeps the historical unbounded-queue behavior.
	// Per-port overrides via Port.SetBuffer take precedence.
	BufferBytes int64

	// LossRecovery arms the sender-side recovery path: per-flow RTO with
	// exponential backoff and go-back-N resend from the last cumulative
	// ACK. It must be on for any run that can drop packets (finite
	// buffers, fault injection, link flaps), and stays off by default so
	// lossless runs schedule no extra events and remain bit-identical
	// with earlier versions.
	LossRecovery bool
	// RTOMin / RTOMax bound the retransmission timeout. A flow's initial
	// RTO is 4*baseRTT clamped into [RTOMin, RTOMax]; backoff doubles it
	// up to RTOMax. New fills in defaults (100µs / 10ms).
	RTOMin sim.Time
	RTOMax sim.Time

	// DropDataProb / DropAckProb inject random wire loss: each data/ACK
	// packet completing serialization on any link is dropped with the
	// given probability. Draws come from faultRand, a PRNG separate from
	// the main stream, so enabling faults does not perturb ECN or
	// congestion-control randomness for the same seed.
	DropDataProb float64
	DropAckProb  float64
	// DropFilter, when set, is consulted per packet after the random
	// draws (data/ACK only; seq is Seq for data, AckSeq for ACKs).
	// Deterministic targeted-loss tests use it to kill exact packets.
	DropFilter func(kind Kind, flowID int, seq int64) bool

	// Hooks are optional observers (nil by default). On a sharded network
	// each fires on the worker goroutine of the shard that owns the node,
	// so hooks used with Shard(k > 1) must be concurrency-safe.
	Hooks Hooks

	hosts      []*Host
	hostByNode []*Host // node id -> host (nil for switch ids); O(1) hostByID
	switches   []*Switch
	flows      []*Flow
	nextID     int
	// unfinished counts flows added and not yet finished (AllFinished is
	// O(1)). Atomic because sharded runs decrement it from worker
	// goroutines and read it at epoch barriers; on amd64 the uncontended
	// load/add cost is indistinguishable from the plain int it replaced.
	unfinished atomic.Int64

	// Execution shards: shards[0] always exists and wraps Eng (the
	// sequential simulator is the one-shard special case); Shard(k > 1)
	// appends the rest, builds mail, and derives the parallel lookahead
	// window: the minimum cross-shard link delay.
	shards []*shard
	mail   *sim.Mailboxes
	window sim.Time

	// routeEpoch versions the forwarding state: AddRoute bumps it, and a
	// flow's pre-resolved flat path is honored only while its pathEpoch
	// matches (see Switch.Receive). It starts at 1 so the zero Flow never
	// accidentally matches.
	routeEpoch uint64

	// probeFlow is reused by ProbePath so probing allocates nothing and
	// never touches the packet pool.
	probeFlow Flow
}

// DropCause says why a packet was dropped.
type DropCause uint8

const (
	// DropTail is a tail drop at a full finite egress buffer.
	DropTail DropCause = iota
	// DropWire is random in-transit loss from fault injection.
	DropWire
	// DropLinkDown is loss on a link that is administratively down.
	DropLinkDown
)

func (c DropCause) String() string {
	switch c {
	case DropTail:
		return "tail"
	case DropWire:
		return "wire"
	case DropLinkDown:
		return "linkdown"
	}
	return "unknown"
}

// Hooks are optional observation points for tests and debugging.
type Hooks struct {
	// OnDrop fires when a packet is lost (tail drop, wire fault, or link
	// down). f is nil for PFC control frames; seq is Seq for data and
	// AckSeq for ACKs.
	OnDrop func(f *Flow, kind Kind, seq int64, cause DropCause)
}

// New returns an empty network over eng with the given PRNG seed.
func New(eng *sim.Engine, seed int64) *Network {
	n := &Network{
		Eng:         eng,
		seed:        seed,
		MTU:         1000,
		HeaderBytes: 48,
		AckBytes:    64,
		RTOMin:      100 * sim.Microsecond,
		RTOMax:      10 * sim.Millisecond,
		routeEpoch:  1,
	}
	n.shards = []*shard{newShard(n, 0, eng)}
	return n
}

// Rand returns the network's deterministic PRNG (shard 0's stream, the
// only one on an unsharded network).
func (n *Network) Rand() *rand.Rand { return n.shards[0].rand }

// AddHost creates a host. Host ids are assigned in creation order and are
// the ids used in FlowSpec and routing.
func (n *Network) AddHost() *Host {
	h := &Host{net: n, sh: n.shards[0], id: n.nextID}
	n.nextID++
	n.hosts = append(n.hosts, h)
	for len(n.hostByNode) < h.id {
		n.hostByNode = append(n.hostByNode, nil)
	}
	n.hostByNode = append(n.hostByNode, h)
	return h
}

// AddSwitch creates a switch.
func (n *Network) AddSwitch() *Switch {
	s := &Switch{net: n, sh: n.shards[0], id: n.nextID}
	n.nextID++
	n.switches = append(n.switches, s)
	return s
}

// Hosts returns all hosts in id order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// Flows returns all flows in AddFlow order.
func (n *Network) Flows() []*Flow { return n.flows }

// Connect links a and b with a full-duplex link of the given bandwidth and
// propagation delay, returning (a's port, b's port).
func (n *Network) Connect(a, b Node, bps float64, delay sim.Time) (*Port, *Port) {
	// All nodes live on shard 0 at construction time; Shard rebinds.
	sh := n.shards[0]
	lane := sh.eng.Lane(delay)
	pa := &Port{net: n, sh: sh, eng: sh.eng, lane: lane, owner: a, bw: bps, delay: delay}
	pb := &Port{net: n, sh: sh, eng: sh.eng, lane: lane, owner: b, bw: bps, delay: delay}
	pa.peer, pb.peer = pb, pa
	if sw, ok := a.(*Switch); ok {
		pa.stampINT = true
		pa.ownSw = sw
		sw.ports = append(sw.ports, pa)
	}
	if sw, ok := b.(*Switch); ok {
		pb.stampINT = true
		pb.ownSw = sw
		sw.ports = append(sw.ports, pb)
	}
	if h, ok := a.(*Host); ok {
		if h.port != nil {
			panic(fmt.Sprintf("net: host %d connected twice", h.id))
		}
		pa.ownHost = h
		h.port = pa
	}
	if h, ok := b.(*Host); ok {
		if h.port != nil {
			panic(fmt.Sprintf("net: host %d connected twice", h.id))
		}
		pb.ownHost = h
		h.port = pb
	}
	return pa, pb
}

// AddFlow registers a flow and schedules its start. The algorithm instance
// must be exclusive to this flow.
func (n *Network) AddFlow(spec FlowSpec, algo cc.Algorithm) *Flow {
	if spec.Size <= 0 {
		panic("net: flow size must be positive")
	}
	src := n.hostByID(spec.Src)
	// The flow's sender side executes on the source host's shard: its
	// start event, pacing timers, RTO and ACK processing all run there.
	f := &Flow{Spec: spec, net: n, sh: src.sh, eng: src.sh.eng, host: src, algo: algo}
	if err := n.pathInfo(f); err != nil {
		panic("net: " + err.Error())
	}
	f.rtoBase = 4 * f.baseRTT
	if f.rtoBase < n.RTOMin {
		f.rtoBase = n.RTOMin
	}
	if n.RTOMax > 0 && f.rtoBase > n.RTOMax {
		// On long-delay paths (a 10 ms WAN-edge hop makes 4*baseRTT ~80 ms)
		// the initial timeout must respect the same ceiling the backoff
		// doubling does, or first-loss recovery waits 8x longer than any
		// later one.
		f.rtoBase = n.RTOMax
	}
	f.rto = f.rtoBase
	n.flows = append(n.flows, f)
	n.unfinished.Add(1)
	f.eng.At(spec.Start, f.start)
	return f
}

// hostByID returns the host with the given node id in O(1); unknown ids
// are programming errors and panic (AddFlow's contract).
func (n *Network) hostByID(id int) *Host {
	if h := n.findHost(id); h != nil {
		return h
	}
	panic(fmt.Sprintf("net: no host with id %d", id))
}

// findHost is hostByID without the panic: nil for ids that are not hosts.
func (n *Network) findHost(id int) *Host {
	if id < 0 || id >= len(n.hostByNode) {
		return nil
	}
	return n.hostByNode[id]
}

// pathInfo walks the route the flow's data packets will take (using the
// same ECMP choices) and fills in the flow's path-derived constants: the
// switch hop count; the unloaded RTT (per-link propagation plus MTU-packet
// serialization forward, propagation plus ACK serialization back); the
// one-way pipeline-fill delay; and the bottleneck bandwidth. It also
// pre-resolves the flat forwarding path — the egress port route() would
// pick at each switch, forward for data and reverse for ACKs — which
// Switch.Receive uses instead of per-hop lookups while no route changes.
// The walk resolves routes by (dst, flow id) directly, so it allocates
// nothing and never touches the packet pool.
func (n *Network) pathInfo(f *Flow) error {
	if f.host == nil {
		return fmt.Errorf("no host with id %d", f.Spec.Src)
	}
	if f.host.port == nil {
		return fmt.Errorf("host %d is not connected", f.Spec.Src)
	}
	port := f.host.port
	f.minBw = port.bw
	f.fwdPath = f.fwdPath[:0]
	var dst *Host
	for steps := 0; dst == nil; steps++ {
		if steps > 64 {
			return fmt.Errorf("routing loop from host %d toward host %d", f.Spec.Src, f.Spec.Dst)
		}
		if port.bw < f.minBw {
			f.minBw = port.bw
		}
		f.propSum += port.delay
		f.invBwSum += 1 / port.bw
		fwd := port.delay + sim.TransmitTime(n.MTU+n.HeaderBytes, port.bw)
		f.baseRTT += fwd + port.delay + sim.TransmitTime(n.AckBytes, port.bw)
		switch node := port.peer.owner.(type) {
		case *Host:
			if node.id != f.Spec.Dst {
				return fmt.Errorf("route for flow %d reached host %d, want %d",
					f.Spec.ID, node.id, f.Spec.Dst)
			}
			dst = node
		case *Switch:
			f.hops++
			out := node.lookupRoute(f.Spec.Dst, f.Spec.ID)
			if out == nil {
				return fmt.Errorf("switch %d has no route to host %d", node.id, f.Spec.Dst)
			}
			f.fwdPath = append(f.fwdPath, out)
			port = out
		}
	}
	// Reverse walk for the ACK path. Failure here is not an error: a
	// topology can legally route ACKs through state installed later, so the
	// flow just keeps pathEpoch 0 and forwards via per-hop lookups.
	if dst.port == nil {
		return nil
	}
	f.revPath = f.revPath[:0]
	for port, steps := dst.port, 0; ; steps++ {
		if steps > 64 {
			return nil
		}
		switch node := port.peer.owner.(type) {
		case *Host:
			if node != f.host {
				return nil
			}
			f.pathEpoch = n.routeEpoch
			return nil
		case *Switch:
			out := node.lookupRoute(f.Spec.Src, f.Spec.ID)
			if out == nil {
				return nil
			}
			f.revPath = append(f.revPath, out)
			port = out
		}
	}
}

// ProbePath computes path constants (switch hops, unloaded RTT, bottleneck
// bandwidth) for a hypothetical flow without adding it — useful for sizing
// protocol parameters such as VAI's min-BDP token threshold. Unlike
// AddFlow it reports problems with the spec (unknown or disconnected host,
// missing route) as an error rather than panicking, and reuses a
// network-owned probe flow so probing allocates nothing.
func (n *Network) ProbePath(spec FlowSpec) (hops int, baseRTT sim.Time, minBw float64, err error) {
	f := &n.probeFlow
	fwd, rev := f.fwdPath, f.revPath // keep the walk scratch across probes
	*f = Flow{Spec: spec, net: n, host: n.findHost(spec.Src), fwdPath: fwd, revPath: rev}
	if err := n.pathInfo(f); err != nil {
		return 0, 0, 0, fmt.Errorf("net: probe %w", err)
	}
	return f.hops, f.baseRTT, f.minBw, nil
}

// AllFinished reports whether every flow has completed. It is O(1) — a
// live counter maintained by AddFlow and Flow.finish — because experiment
// loops consult it before every engine step: with the previous O(flows)
// scan it was over half the CPU time of a datacenter-scale run (52% of a
// fig10-medium profile at ~10k flows). On a sharded run it doubles as the
// parallel stop condition, evaluated at epoch barriers.
func (n *Network) AllFinished() bool { return n.unfinished.Load() == 0 }

// CheckConservation verifies the end-to-end conservation invariants after
// a run: every finished flow delivered and acknowledged exactly its size,
// and no flow has negative in-flight bytes. The invariants hold in lossy
// mode too — go-back-N refills every gap before a flow can finish — so
// experiment harnesses check this unconditionally. It returns an error
// describing the first violation.
func (n *Network) CheckConservation() error {
	for _, f := range n.flows {
		if f.inflight < 0 {
			return fmt.Errorf("flow %d: negative inflight %d", f.Spec.ID, f.inflight)
		}
		if f.finished && (f.delivered != f.Spec.Size || f.acked < f.Spec.Size) {
			return fmt.Errorf("flow %d: finished with delivered=%d acked=%d size=%d",
				f.Spec.ID, f.delivered, f.acked, f.Spec.Size)
		}
		if f.delivered > f.Spec.Size {
			return fmt.Errorf("flow %d: delivered %d exceeds size %d",
				f.Spec.ID, f.delivered, f.Spec.Size)
		}
	}
	return nil
}
