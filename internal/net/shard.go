package net

import (
	"fmt"
	"math/rand"
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// shard owns the per-run mutable execution state for one partition of the
// topology: its own engine (event queue and clock), PRNG streams, packet
// pool, and lifetime counters. A sequential network is simply one shard
// (shard 0, wrapping Network.Eng) — every node, port and flow is bound to
// it at construction, so the unsharded hot path is unchanged except for
// reading these fields through the shard pointer instead of the network.
//
// After Network.Shard(k > 1), each node's ports and flows are rebound to
// their partition's shard, and nothing a shard touches while executing is
// shared writable with another shard: engines, pools, PRNGs and counters
// are per-shard; flow sender state runs on the sender's shard and
// receiver state on the receiver's; the only cross-shard interaction is
// packet handoff through sim.Outbox at link-propagation boundaries.
// Network-level config fields (MTU, WireLoss, ...) and the routes are read-only during a run and safely shared.
type shard struct {
	net *Network
	id  int
	eng *sim.Engine

	rand      *rand.Rand
	faultRand *rand.Rand // Network.WireLoss draws; isolated from rand

	pool  []*Packet
	chunk []Packet // allocated, not yet carved into the pool (see getPacket)
	// intChunk is allocated INT records, not yet carved into stacks (see
	// getPacket).
	intChunk []cc.Telemetry

	// runs is the free list of run slots of flows whose source host is on
	// this shard; runChunk, pathChunk and bpsChunk are allocated, not yet
	// carved (see takeRun).
	runs      *flowRun
	runChunk  []flowRun
	pathChunk []*Port
	bpsChunk  []float64

	// starts is the queue of flows whose source host is on this shard and
	// that were added in start order, linked through Flow.nextStart and
	// ending at lastStart; the shard's one start event is scheduled for the
	// head (see queueStart).
	starts, lastStart *Flow

	// Lifetime counters, summed across shards by Network.Stats.
	Counters
}

// shardSeedStride separates per-shard PRNG streams: shard i seeds with
// base + i*stride (an odd 64-bit constant, so strides never collide for
// realistic shard counts). Shard 0 seeds with exactly the base seed, which
// is what keeps single-shard runs bit-identical to the pre-sharding
// sequential simulator.
const shardSeedStride = int64(-0x61c8_8646_80b5_83eb) // 0x9e3779b97f4a7c15 as int64

func newShard(n *Network, id int, eng *sim.Engine) *shard {
	seed := n.seed + int64(id)*shardSeedStride
	return &shard{
		net:       n,
		id:        id,
		eng:       eng,
		rand:      rand.New(&lazySource{seed: seed}),
		faultRand: rand.New(&lazySource{seed: seed ^ 0x5dee_c0de}),
	}
}

// lazySource is rand.NewSource(seed), seeded at its first draw: a stream
// holds 4.9 KB of state and seeding it is a loop over all of it, and only
// probabilistic feedback and WireLoss rules draw at all.
// Draw for draw it is the stream rand.NewSource(seed) gives.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) Int63() int64    { return s.source().Int63() }
func (s *lazySource) Uint64() uint64  { return s.source().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

// startEvent is a shard as its start event: it starts the flow at the head
// of the shard's start queue and re-arms for the next one.
type startEvent shard

// queueStart reserves f's place in the engine's order now and schedules
// its start under it later. A flow whose start is not before the last
// queued one joins the queue, and the shard's one start event, armed for
// the head, starts each in turn; one that would start earlier becomes an
// event of its own. Either way the start runs at (Spec.Start, the
// reservation), where an event scheduled at AddFlow would, so the queue
// changes what is pending — one event per shard instead of one per flow —
// and not the order.
func (sh *shard) queueStart(f *Flow) {
	f.start = sh.eng.Reserve()
	switch {
	case sh.lastStart == nil:
		sh.starts, sh.lastStart = f, f
		sh.eng.ScheduleReserved(f.Spec.Start, f.start, (*startEvent)(sh))
	case f.Spec.Start >= sh.lastStart.Spec.Start:
		sh.lastStart.nextStart, sh.lastStart = f, f
	default:
		sh.eng.ScheduleReserved(f.Spec.Start, f.start, f)
	}
}

// Fire starts the head of the queue after arming for the flow behind it.
func (e *startEvent) Fire() {
	sh := (*shard)(e)
	f := sh.starts
	if sh.starts, f.nextStart = f.nextStart, nil; sh.starts != nil {
		sh.eng.ScheduleReserved(sh.starts.Spec.Start, sh.starts.start, e)
	} else {
		sh.lastStart = nil
	}
	f.Fire()
}

// packetSlab is how many packets a pool miss carves at once, packetChunk
// how many the allocator is asked for when the carved-from chunk runs out,
// and intRecords how many INT records fill one 32 KB chunk of them. Slabs
// keep a burst's packets cache-dense instead of scattered across the heap.
// The chunk is 32 KB because that is the smallest size the Go allocator
// places on a page boundary whatever the element type: a 4 KB
// make([]Packet, 64) starts 8 bytes past a cache line, behind the header
// pointerful objects under 32 KB carry, and every 64-byte packet then
// straddles two lines instead of sitting on one (TestPacketLayout).
const (
	packetSlab  = 64
	packetChunk = 8 * packetSlab
	intRecords  = int(32 << 10 / unsafe.Sizeof(cc.Telemetry{}))
)

// getPacket returns a pooled packet. Packets migrate between shards with
// the traffic: a packet obtained from one shard's pool is recycled into the
// pool of whatever shard it finishes on. Ownership is unambiguous at every
// instant — exactly one shard holds the packet (it is either in a queue, in
// flight on that shard's engine, or in a mailbox between barrier phases).
func (sh *shard) getPacket() *Packet {
	sh.PoolGets++
	if m := len(sh.pool); m > 0 {
		p := sh.pool[m-1]
		sh.pool = sh.pool[:m-1]
		return p
	}
	// Pool miss: carve a fresh slab. poolAllocs still counts misses (the
	// steady-state health signal), not packets.
	sh.PoolAllocs++
	if len(sh.chunk) == 0 {
		sh.chunk = make([]Packet, packetChunk)
	}
	pkts := sh.chunk[:packetSlab]
	sh.chunk = sh.chunk[packetSlab:]
	// Each packet's INT stack is as deep as the longest flow path: a data
	// packet stamps its whole path into its own stack, and a longer path
	// than AddFlow has seen gets a fresh stack (see flowRun.trySend) instead
	// of writing into the neighbour's. Stacks are carved back to back from
	// 32 KB chunks, so a 120-byte stack costs 120 bytes, not a share of a
	// size class it does not fill.
	if h := sh.net.maxHops; h > 0 {
		for i := range pkts {
			if len(sh.intChunk) < h {
				sh.intChunk = make([]cc.Telemetry, max(intRecords, h))
			}
			pkts[i].setStack(sh.intChunk[:h:h])
			sh.intChunk = sh.intChunk[h:]
		}
	}
	for i := 1; i < packetSlab; i++ {
		sh.pool = append(sh.pool, &pkts[i])
	}
	return &pkts[0]
}

// takeRun returns a run slot from the free list, or carves one on a miss
// with a path buffer as long as the longest path AddFlow has seen and a
// rate buffer as long as the longest forward path, each clipped to it: a
// longer path appends into fresh memory instead of the neighbour's buffer.
func (sh *shard) takeRun() *flowRun {
	if r := sh.runs; r != nil {
		sh.runs = r.next
		return r
	}
	sh.FlowRuns++
	if len(sh.runChunk) == 0 {
		sh.runChunk = make([]flowRun, runSlab)
	}
	r := &sh.runChunk[0]
	sh.runChunk = sh.runChunk[1:]
	k := sh.net.maxPath
	if len(sh.pathChunk) < k {
		sh.pathChunk = make([]*Port, max(pathSlab, k))
	}
	r.path = sh.pathChunk[:0:k]
	sh.pathChunk = sh.pathChunk[k:]
	h := sh.net.maxHops
	if len(sh.bpsChunk) < h {
		sh.bpsChunk = make([]float64, max(pathSlab, h))
	}
	r.env.HopBps = sh.bpsChunk[:0:h]
	sh.bpsChunk = sh.bpsChunk[h:]
	return r
}

// putPacket recycles a packet into this shard's pool. The pool is
// uncapped: its length is bounded by the peak number of simultaneously
// live packets (every pooled packet was allocated for a moment when that
// many were in flight), so an explicit cap only creates steady-state pool
// misses — which is exactly what the PoolAllocs counter flags.
func (sh *shard) putPacket(p *Packet) {
	p.reset()
	sh.pool = append(sh.pool, p)
}

// drop accounts for a lost packet — a tail drop at a full egress buffer, or
// else a wire drop (Network.WireLoss) — and recycles it.
func (sh *shard) drop(p *Packet, tail bool) {
	switch p.Kind {
	case Data:
		sh.DataDrops++
	case Ack:
		sh.AckDrops++
	}
	if tail {
		sh.BufferDrops++
	} else {
		sh.WireDrops++
	}
	sh.putPacket(p)
}

// Shard partitions the network for parallel execution: assignment maps
// every node id (hosts and switches alike) to a shard in [0, k). Each
// shard gets its own engine, packet pool and PRNG streams; ports whose
// peer lives on a different shard hand packets over through mailboxes
// instead of scheduling the arrival locally. The lookahead window is the
// minimum propagation delay over all cross-shard links. Any assignment is
// safe, because that window bounds every relay between shards; it is exact
// when the shards form a complete graph of equal-delay links, which is
// how topo's FatTree.ShardMap cuts.
//
// Shard must be called after the topology is built (nodes, links, routes)
// and before any flow is added or event scheduled — it rebinds execution
// state that flows and scheduled closures capture. k <= 1 is a no-op: the
// network stays exactly the sequential single-shard simulator.
//
// Determinism: a given (seed, topology, assignment, k) is bit-identical
// across repetitions — see sim.Parallel. Different k (or assignments)
// produce statistically equivalent but not identical runs: sharding
// re-partitions the PRNG streams and the tie order of same-timestamp
// events at shard boundaries.
func (n *Network) Shard(assignment []int, k int) {
	if n.numFlows > 0 {
		panic("net: Shard must be called before AddFlow")
	}
	if n.Eng.Pending() != 0 {
		panic("net: Shard must be called before scheduling events")
	}
	if len(n.shards) > 1 {
		panic("net: network is already sharded")
	}
	if k < 1 {
		panic(fmt.Sprintf("net: shard count %d < 1", k))
	}
	if len(assignment) < n.nextID {
		panic(fmt.Sprintf("net: assignment covers %d nodes, network has %d", len(assignment), n.nextID))
	}
	if k == 1 {
		return
	}
	for id := 0; id < n.nextID; id++ {
		if s := assignment[id]; s < 0 || s >= k {
			panic(fmt.Sprintf("net: node %d assigned to shard %d, want [0,%d)", id, s, k))
		}
	}
	for i := 1; i < k; i++ {
		n.shards = append(n.shards, newShard(n, i, sim.NewEngine()))
	}
	n.mail = sim.NewMailboxes(k)
	rebind := func(node Node, ports []*Port) {
		sh := n.shards[assignment[node.NodeID()]]
		for _, pt := range ports {
			pt.sh = sh
			pt.eng = sh.eng
			pt.lane = sh.eng.Lane(pt.delay)
			pt.ser = [2]txMemo{} // bound to the engine the port is leaving
		}
	}
	for _, h := range n.hosts {
		h.sh = n.shards[assignment[h.id]]
		if h.port != nil {
			rebind(h, []*Port{h.port})
		}
	}
	for _, s := range n.switches {
		rebind(s, s.ports)
	}
	// Wire the cross-shard handoffs and derive the lookahead window.
	for _, h := range n.hosts {
		if h.port != nil {
			n.bindCrossShard(h.port)
		}
	}
	for _, s := range n.switches {
		for _, pt := range s.ports {
			n.bindCrossShard(pt)
		}
	}
}

// bindCrossShard points pt at its mailbox when its peer lives on another
// shard, and folds the link delay into the lookahead window.
func (n *Network) bindCrossShard(pt *Port) {
	src, dst := pt.sh.id, pt.peer.sh.id
	if src == dst {
		return
	}
	if pt.delay <= 0 {
		panic(fmt.Sprintf("net: cross-shard link %d->%d has zero propagation delay (no lookahead)",
			pt.Owner().NodeID(), pt.peer.Owner().NodeID()))
	}
	pt.xmail = n.mail.Outbox(src, dst)
	if n.window == 0 || pt.delay < n.window {
		n.window = pt.delay
	}
}

// Shards returns the number of execution shards (1 unless Shard was
// called with k > 1).
func (n *Network) Shards() int { return len(n.shards) }

// ShardEngines returns the per-shard engines in shard-id order. For an
// unsharded network this is just [Eng].
func (n *Network) ShardEngines() []*sim.Engine {
	engines := make([]*sim.Engine, len(n.shards))
	for i, sh := range n.shards {
		engines[i] = sh.eng
	}
	return engines
}

// NewParallel builds the barrier-synchronized runner for a sharded
// network, with AllFinished as the stop condition. Valid for a single
// shard too (one worker, no mailboxes), though the sequential
// Engine.Step loop is faster there.
func (n *Network) NewParallel() *sim.Parallel {
	return sim.NewParallel(n.ShardEngines(), n.mail, sim.ParallelConfig{
		Window: n.window,
		Done:   n.AllFinished,
	})
}
