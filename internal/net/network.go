package net

import (
	"fmt"
	"math"
	"math/rand"
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

	// WireLoss, when set, is asked once per data packet and ACK that
	// completes serialization on any link whether the wire loses it (seq
	// is the data offset for data, the cumulative ACK for ACKs). r is the
	// shard's fault stream, a PRNG separate from the main one, so a random
	// loss rule does not perturb congestion-control randomness for the
	// same seed. On a sharded network shards ask concurrently.
	WireLoss      func(r *rand.Rand, kind Kind, flowID int, seq int64) bool
	finiteBuffers bool // some port's SetBuffer capped its queue

	hosts      []*Host
	hostByNode []*Host // node id -> host (nil for switch ids); O(1) findHost
	switches   []*Switch
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

	// walk is the path ProbePath walks into, kept across probes.
	walk []*Port
	// flowSlabs holds the flow handles in AddFlow order, numFlows of them:
	// the network's one record of its flows.
	flowSlabs [][]Flow
	numFlows  int
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

// ackBytes is the wire size of an acknowledgement. rtoMin and rtoMax bound
// the retransmission timeout of a lossy network: a flow's first timeout is
// 4*baseRTT clamped into them, and each timeout doubles it up to rtoMax.
const (
	ackBytes = 64
	rtoMin   = 100 * sim.Microsecond
	rtoMax   = 10 * sim.Millisecond
)

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
	s := &Switch{net: n, id: n.nextID}
	n.nextID++
	n.switches = append(n.switches, s)
	return s
}

// Hosts returns all hosts in id order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// NumFlows returns how many flows have been added.
func (n *Network) NumFlows() int { return n.numFlows }

// Flow returns the i-th flow added: slab i/flowSlab, slot i%flowSlab.
func (n *Network) Flow(i int) *Flow {
	if uint(i) >= uint(n.numFlows) {
		panic(fmt.Sprintf("net: flow %d of %d", i, n.numFlows))
	}
	return &n.flowSlabs[i/flowSlab][i%flowSlab]
}

// Connect links a and b with a full-duplex link of the given bandwidth and
// propagation delay, returning (a's port, b's port). A host connected twice
// panics, and so does a Node that is neither a *Host nor a *Switch.
func (n *Network) Connect(a, b Node, bps float64, delay sim.Time) (*Port, *Port) {
	// All nodes live on shard 0 at construction time; Shard rebinds.
	sh := n.shards[0]
	lane := sh.eng.Lane(delay)
	pa := &Port{net: n, sh: sh, eng: sh.eng, lane: lane, bw: bps, delay: delay}
	pb := &Port{net: n, sh: sh, eng: sh.eng, lane: lane, bw: bps, delay: delay}
	pa.peer, pb.peer = pb, pa
	pa.attach(a)
	pb.attach(b)
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
	src := n.findHost(spec.Src)
	hops, path, rtt, err := n.routes(src, spec)
	if err != nil {
		panic("net: " + err.Error())
	}
	n.maxHops = max(n.maxHops, hops)
	n.maxPath = max(n.maxPath, path)
	n.maxRTT = max(n.maxRTT, rtt)
	slot := n.numFlows % flowSlab
	if slot == 0 {
		n.flowSlabs = append(n.flowSlabs, make([]Flow, flowSlab))
	}
	f := &n.flowSlabs[len(n.flowSlabs)-1][slot] // zeroed by make, and never reused
	f.Spec, f.net, f.algo = spec, n, algo
	n.numFlows++
	n.unfinished.Add(1)
	// The flow's sender side executes on the source host's shard: its
	// start, pacing timers, RTO and ACK processing all run there.
	src.sh.queueStart(f)
	return f
}

// lossy reports whether the network can lose a packet: some port has a
// finite buffer or WireLoss is set. Only a flow started on it arms an RTO.
func (n *Network) lossy() bool { return n.finiteBuffers || n.WireLoss != nil }

// StallWindow is how long a run may go with a flow active and no byte
// acknowledged before it counts as stalled: max(1 ms, 1000 x the largest
// base RTT any added flow can have over its route's ECMP choices), plus
// rtoMax on a lossy network. It saturates rather than wrap.
func (n *Network) StallWindow() sim.Time {
	w := max(sim.Millisecond, 1000*min(n.maxRTT, math.MaxInt64/2000))
	if n.lossy() {
		w += rtoMax
	}
	return w
}

// initialRTO is a flow's first retransmission timeout: 4*baseRTT clamped
// into [rtoMin, rtoMax], the ceiling the backoff doubling has too. baseRTT
// is capped first, so an hours-long round trip cannot wrap the product.
func initialRTO(baseRTT sim.Time) sim.Time {
	return max(rtoMin, min(4*min(baseRTT, rtoMax), rtoMax))
}

// findHost returns the host with the given node id, nil for ids that are
// not hosts.
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
// forward links: the switch hops, the unloaded RTT (per-link propagation
// plus MTU-packet serialization forward, propagation plus ACK
// serialization back) and the ideal FCT. It returns the path and the
// bottleneck bandwidth. walk allocates nothing once buf has grown, and
// never touches the packet pool.
func (f *Flow) walk(src *Host, buf []*Port) ([]*Port, float64) {
	n := f.net
	path := appendPath(buf, src.port, f.Spec.Dst, f.Spec.ID)
	fwd := path[len(buf):]
	// The route check bounded the round trip below the end of the clock,
	// so the sums cannot wrap.
	prop, invBw, minBw, rtt := src.port.delay, 1/src.port.bw, src.port.bw, n.linkRTT(src.port)
	for _, port := range fwd {
		prop += port.delay
		invBw += 1 / port.bw
		minBw = min(minBw, port.bw)
		rtt += n.linkRTT(port)
	}
	f.hops, f.baseRTT = int32(len(fwd)), rtt
	// The ideal FCT: the first packet's pipeline fill, at its own wire size
	// (sub-MTU flows), plus the remaining wire bytes at the bottleneck.
	nPkts := (f.Spec.Size + int64(n.MTU) - 1) / int64(n.MTU)
	wire := f.Spec.Size + nPkts*int64(n.HeaderBytes)
	first := min(wire, int64(n.MTU+n.HeaderBytes))
	fill := prop + sim.Time(float64(first)*8*1e12*invBw)
	f.idealFCT = fill + sim.Time(float64(wire-first)*8*1e12/minBw)
	return appendPath(path, n.findHost(f.Spec.Dst).port, f.Spec.Src, f.Spec.ID), minBw
}

// appendPath follows the routes from a host's uplink to host dst, choosing
// among each switch's members by flowID, and appends the egress port taken
// at every switch to path. The route summaries checked the route, so the
// walk reaches dst.
func appendPath(path []*Port, from *Port, dst, flowID int) []*Port {
	for sw := from.peer.ownSw; sw != nil; sw = from.peer.ownSw {
		g := sw.members(dst)
		from = g[ecmpHash(flowID, sw.id, len(g))]
		path = append(path, from)
	}
	return path
}

// ProbePath computes path constants (switch hops, unloaded RTT, bottleneck
// bandwidth) for a hypothetical flow without adding it — useful for sizing
// protocol parameters such as VAI's min-BDP token threshold. It checks the
// routes as AddFlow does, so it fails exactly on the specs AddFlow refuses,
// but reports the problem (unknown or disconnected host, missing route) as
// an error rather than panicking; then it walks the path for a probe flow
// on the stack, into a network-owned buffer, so probing allocates nothing.
func (n *Network) ProbePath(spec FlowSpec) (hops int, baseRTT sim.Time, minBw float64, err error) {
	src := n.findHost(spec.Src)
	if _, _, _, err := n.routes(src, spec); err != nil {
		return 0, 0, 0, fmt.Errorf("net: probe %w", err)
	}
	f := Flow{Spec: spec, net: n}
	n.walk, minBw = f.walk(src, n.walk[:0])
	return int(f.hops), f.baseRTT, minBw, nil
}

// AllFinished reports whether every flow has completed. It is O(1), a live
// counter kept by AddFlow and Flow.finish, because experiment loops consult
// it before every engine step; a sharded run's epoch barriers stop on it.
func (n *Network) AllFinished() bool { return n.unfinished.Load() == 0 }

// CheckConservation verifies the end-to-end conservation invariants after
// a run: every finished flow delivered and acknowledged exactly its size,
// and no flow has negative in-flight bytes. The invariants hold in lossy
// mode too — go-back-N refills every gap before a flow can finish — so
// experiment harnesses check this unconditionally. It returns an error
// describing the first violation.
func (n *Network) CheckConservation() error {
	for i := range n.numFlows {
		f := n.Flow(i)
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
