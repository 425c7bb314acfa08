package net

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// Network assembles hosts, switches, links and flows over a sim.Engine.
// Construction order: create nodes, Connect them, add switch routes,
// optionally Shard for parallel execution, then AddFlow; routes are fixed
// at the first flow or probe (Switch.AddRoute panics after it). The network is
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
	// draws (data/ACK only; seq is the data offset for data, the
	// cumulative ACK for ACKs).
	// Deterministic targeted-loss tests use it to kill exact packets.
	DropFilter func(kind Kind, flowID int, seq int64) bool

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

	// probeFlow is reused by ProbePath so probing allocates nothing and
	// never touches the packet pool.
	probeFlow Flow

	// walk is the path ProbePath walks into, kept across probes. flowChunk
	// is allocated, not yet carved (see flowSlab).
	walk      []*Port
	flowChunk []Flow
	// maxHops is the longest forward path any flow added can take: the
	// depth of the INT stack every packet is carved with (see
	// shard.getPacket). maxPath is the longest forward plus reverse path:
	// the capacity every run slot's path buffer is carved with (see
	// shard.takeRun). maxRTT is the largest base RTT any flow added can
	// have. AddFlow records all three from the route summaries.
	maxHops, maxPath int
	maxRTT           sim.Time
	// summarized is set once some switch holds route summaries: routes
	// are fixed from then on.
	summarized bool
	// retireRuns retires every finished flow's run slot instead of reusing
	// it: the no-reuse reference of the tests.
	retireRuns bool
}

// flowSlab is how many flow handles one allocation holds, runSlab how many
// run slots, and pathSlab how many path ports the run slots' path buffers
// are carved from: a flow costs a slot, not an allocation of its own. Flow
// and run slabs fill 32 KB, the allocator's largest small size class, so
// size-class rounding wastes less than one slot per slab; 1024 ports are
// the paths of about a hundred runs on a fat-tree.
const (
	flowSlab = int(32 << 10 / unsafe.Sizeof(Flow{}))
	runSlab  = int(32 << 10 / unsafe.Sizeof(flowRun{}))
	pathSlab = 1024
)

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
	}
	n.shards = []*shard{newShard(n, 0, eng)}
	return n
}

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

// AddFlow registers a flow and reserves its start's place in the engine's
// order: flows added in start order wait in their source shard's start
// queue, and only the first of them is pending (see shard.queueStart).
// AddFlow checks the routes both ways and the clock bound from the route
// summaries and walks no path: the start walks it and derives the path
// constants, so BaseRTT, Hops, IdealFCT and Slowdown are valid from the
// start on. A spec with a problem ProbePath reports panics here. The
// algorithm instance must be exclusive to this flow.
func (n *Network) AddFlow(spec FlowSpec, algo cc.Algorithm) *Flow {
	if spec.Size <= 0 {
		panic("net: flow size must be positive")
	}
	src := n.hostByID(spec.Src)
	hops, path, rtt, err := n.routes(src, spec)
	if err != nil {
		panic("net: " + err.Error())
	}
	n.maxHops = max(n.maxHops, hops)
	n.maxPath = max(n.maxPath, path)
	n.maxRTT = max(n.maxRTT, rtt)
	if len(n.flowChunk) == 0 {
		n.flowChunk = make([]Flow, flowSlab)
	}
	f := &n.flowChunk[0] // zeroed by make, and never reused
	n.flowChunk = n.flowChunk[1:]
	f.Spec, f.net, f.algo = spec, n, algo
	n.flows = append(n.flows, f)
	n.unfinished.Add(1)
	// The flow's sender side executes on the source host's shard: its
	// start, pacing timers, RTO and ACK processing all run there.
	src.sh.queueStart(f)
	return f
}

// MaxBaseRTT returns the largest base RTT any flow added so far can have:
// the longest round trip over every ECMP choice of its route, which on a
// symmetric fabric is the largest Flow.BaseRTT.
func (n *Network) MaxBaseRTT() sim.Time { return n.maxRTT }

// initialRTO is a flow's first retransmission timeout: 4*baseRTT, which
// saturates at the end of the clock rather than wrap, clamped into
// [RTOMin, RTOMax].
func (n *Network) initialRTO(baseRTT sim.Time) sim.Time {
	rto := max(4*min(baseRTT, math.MaxInt64/4), n.RTOMin)
	if n.RTOMax > 0 && rto > n.RTOMax {
		// On long-delay paths (a 10 ms WAN-edge hop makes 4*baseRTT ~80 ms)
		// the initial timeout must respect the same ceiling the backoff
		// doubling does, or first-loss recovery waits 8x longer than any
		// later one.
		rto = n.RTOMax
	}
	return rto
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

// routes checks a flow's routes both ways and the clock bound from the
// route summaries, walking no path. It returns the longest forward path's
// switch hops, the longest forward plus ACK path's, and the largest base
// RTT any ECMP choice gives the flow. A missing route, a loop, a route to
// another host — on any ECMP member, whichever the flow's hash picks — or
// a round trip that reaches the end of the clock is an error.
func (n *Network) routes(src *Host, spec FlowSpec) (hops, path int, rtt sim.Time, err error) {
	if src == nil {
		return 0, 0, 0, fmt.Errorf("no host with id %d", spec.Src)
	}
	if src.port == nil {
		return 0, 0, 0, fmt.Errorf("host %d is not connected", spec.Src)
	}
	hops, rtt, err = n.reach(src.port, spec.Dst, spec.ID)
	if err != nil {
		return 0, 0, 0, err
	}
	// The forward route reached the destination host, so it exists and is
	// connected.
	back, _, err := n.reach(n.findHost(spec.Dst).port, spec.Src, spec.ID)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ack %w", err)
	}
	if rtt = satAdd(n.linkRTT(src.port), rtt); rtt == math.MaxInt64 {
		return 0, 0, 0, fmt.Errorf("flow %d: base RTT beyond the simulator's clock (at most %v)", spec.ID, sim.Time(math.MaxInt64))
	}
	return hops, hops + back, rtt, nil
}

// reach checks the route from a host's uplink to host dst by one summary
// lookup: it returns the longest path's switch hops and round trip past
// the uplink.
func (n *Network) reach(from *Port, dst, flowID int) (hops int, rtt sim.Time, err error) {
	if h := from.peer.ownHost; h != nil {
		if h.id != dst {
			return 0, 0, fmt.Errorf("route for flow %d reached host %d, want %d", flowID, h.id, dst)
		}
		return 0, 0, nil
	}
	sw := from.peer.ownSw
	if n.findHost(dst) == nil {
		return 0, 0, fmt.Errorf("switch %d has no route to host %d", sw.id, dst)
	}
	sum := sw.routeTo(dst)
	if sum.state != routeOK {
		return 0, 0, sw.routeFault(dst)
	}
	return int(sum.hops), sum.rtt, nil
}

// walk resolves the flat path of a flow whose routes AddFlow or ProbePath
// checked, appending it to buf, and derives the path constants from its
// forward links: the switch hops; the unloaded RTT (per-link propagation
// plus MTU-packet serialization forward, propagation plus ACK
// serialization back); the one-way pipeline-fill delay; and the bottleneck
// bandwidth. The check makes a failure impossible, so one panics. walk
// allocates nothing once buf has grown, and never touches the packet pool.
func (f *Flow) walk(src *Host, buf []*Port) []*Port {
	path, hops, err := f.net.walkPath(src, f.Spec, buf)
	if err != nil {
		panic("net: a checked route failed its walk: " + err.Error())
	}
	f.hops, f.minBw = hops, src.port.bw
	f.addLink(src.port)
	for _, port := range path[:hops] {
		f.addLink(port)
	}
	return path
}

// walkPath appends a flow's flat path to buf: the egress port each switch
// picks for its data, then for its ACKs. It also returns the length of the
// forward part, the flow's switch hops, and the grown buf even on error.
func (n *Network) walkPath(src *Host, spec FlowSpec, buf []*Port) (path []*Port, hops int, err error) {
	if path, err = resolvePath(src.port, spec.Dst, spec.ID, buf); err != nil {
		return path, 0, err
	}
	hops = len(path) - len(buf)
	if path, err = resolvePath(n.findHost(spec.Dst).port, spec.Src, spec.ID, path); err != nil {
		return path, hops, fmt.Errorf("ack %w", err)
	}
	return path, hops, nil
}

// resolvePath follows the routes from a host's uplink to host dst, choosing
// among ECMP members by flowID, and appends the egress port taken at every
// switch to path. It returns path even on error, so the caller keeps the
// grown scratch.
func resolvePath(from *Port, dst, flowID int, path []*Port) ([]*Port, error) {
	for port, steps := from, 0; ; steps++ {
		if steps > maxRouteHops {
			return path, fmt.Errorf("routing loop toward host %d", dst)
		}
		switch node := port.peer.owner.(type) {
		case *Host:
			if node.id != dst {
				return path, fmt.Errorf("route for flow %d reached host %d, want %d", flowID, node.id, dst)
			}
			return path, nil
		case *Switch:
			if port = node.lookupRoute(dst, flowID); port == nil {
				return path, fmt.Errorf("switch %d has no route to host %d", node.id, dst)
			}
			path = append(path, port)
		}
	}
}

// addLink folds one forward link into the flow's path constants. The route
// check bounded the round trip below the end of the clock, so the sum
// cannot wrap.
func (f *Flow) addLink(port *Port) {
	f.minBw = min(f.minBw, port.bw)
	f.propSum += port.delay
	f.invBwSum += 1 / port.bw
	f.baseRTT += f.net.linkRTT(port)
}

// ProbePath computes path constants (switch hops, unloaded RTT, bottleneck
// bandwidth) for a hypothetical flow without adding it — useful for sizing
// protocol parameters such as VAI's min-BDP token threshold. It checks the
// routes as AddFlow does, so it fails exactly on the specs AddFlow refuses,
// but reports the problem (unknown or disconnected host, missing route) as
// an error rather than panicking; then it walks the path into a
// network-owned probe flow, so probing allocates nothing.
func (n *Network) ProbePath(spec FlowSpec) (hops int, baseRTT sim.Time, minBw float64, err error) {
	src := n.findHost(spec.Src)
	if _, _, _, err := n.routes(src, spec); err != nil {
		return 0, 0, 0, fmt.Errorf("net: probe %w", err)
	}
	f := &n.probeFlow
	*f = Flow{Spec: spec, net: n}
	n.walk = f.walk(src, n.walk[:0])
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
		if r := f.run; r != nil && r.inflight < 0 {
			return fmt.Errorf("flow %d: negative inflight %d", f.Spec.ID, r.inflight)
		}
		delivered := f.Delivered()
		if f.finished && (delivered != f.Spec.Size || f.acked < f.Spec.Size) {
			return fmt.Errorf("flow %d: finished with delivered=%d acked=%d size=%d",
				f.Spec.ID, delivered, f.acked, f.Spec.Size)
		}
		if delivered > f.Spec.Size {
			return fmt.Errorf("flow %d: delivered %d exceeds size %d",
				f.Spec.ID, delivered, f.Spec.Size)
		}
	}
	return nil
}
