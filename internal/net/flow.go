package net

import (
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// FlowSpec describes a flow to inject: Size payload bytes from host Src to
// host Dst starting at Start. IDs must be unique per network.
type FlowSpec struct {
	ID    int
	Src   int
	Dst   int
	Size  int64
	Start sim.Time
}

// Flow is the handle of one flow: what AddFlow returns, valid for the
// network's life. It holds the spec, the path constants (derived at the
// start), its place in the start order, and the results; everything the
// flow needs only while it runs — window, pacing, RTO, algorithm and its
// cc.Env, path, receiver state — lives in a flowRun that the start takes
// from its shard's free list and that goes back there once nothing can
// reach it (see flowRun.release). Handles are carved from the network's flow slab.
type Flow struct {
	Spec FlowSpec

	net *Network
	// algo is the flow's algorithm from AddFlow until the start hands it to
	// the run; run is the run state from the start until the finish.
	algo cc.Algorithm
	run  *flowRun

	// start is the start's place in the engine's order, reserved by
	// AddFlow; nextStart links the flows queued behind it on the shard's
	// start event (see shard.queueStart).
	start     sim.Reservation
	nextStart *Flow

	hops     int
	baseRTT  sim.Time
	propSum  sim.Time // one-way propagation along the path
	invBwSum float64  // sum over forward links of 1/bandwidth (s/bit)
	minBw    float64  // bottleneck link bandwidth on the path

	// Retransmits counts data packets this flow re-sent; Timeouts counts
	// RTO fires that triggered go-back-N recovery.
	Retransmits int64
	Timeouts    int64

	// FinishedAt is valid once finished; DeliveredAt is when the last
	// payload byte reached the receiver (FinishedAt additionally waits for
	// the final ACK). DeliveredAt is the one field the receiver's shard
	// writes.
	FinishedAt  sim.Time
	DeliveredAt sim.Time

	// delivered and acked are the run's counts, copied at the finish.
	delivered int64
	acked     int64
	// deliveredMark supports goodput sampling (metrics take deltas).
	deliveredMark int64

	started  bool
	finished bool
}

// Finished reports whether all payload bytes have been acknowledged.
func (f *Flow) Finished() bool { return f.finished }

// Started reports whether the flow has begun sending.
func (f *Flow) Started() bool { return f.started }

// Active reports whether the flow has started and not finished.
func (f *Flow) Active() bool { return f.started && !f.finished }

// Delivered returns payload bytes received at the destination.
func (f *Flow) Delivered() int64 {
	if f.run != nil {
		return f.run.delivered
	}
	return f.delivered
}

// Acked returns payload bytes acknowledged at the sender.
func (f *Flow) Acked() int64 {
	if f.run != nil {
		return f.run.acked
	}
	return f.acked
}

// BaseRTT returns the flow's unloaded round-trip time (propagation plus
// MTU serialization on the forward path and ACK serialization back). It,
// Hops, IdealFCT and Slowdown are valid from the flow's start, whose walk
// derives the path constants.
func (f *Flow) BaseRTT() sim.Time { return f.baseRTT }

// Hops returns the number of switches on the flow's path.
func (f *Flow) Hops() int { return f.hops }

// FCT returns the flow completion time measured to last-byte delivery at
// the receiver, valid once finished.
func (f *Flow) FCT() sim.Time { return f.DeliveredAt - f.Spec.Start }

// IdealFCT returns the theoretical minimum completion time on an unloaded
// path (the paper's FCT-slowdown denominator: propagation plus
// serialization): the pipeline fill for the first packet — at its actual
// wire size, which matters for sub-MTU flows — plus the remaining wire
// bytes at the bottleneck bandwidth.
func (f *Flow) IdealFCT() sim.Time {
	nPkts := (f.Spec.Size + int64(f.net.MTU) - 1) / int64(f.net.MTU)
	wire := f.Spec.Size + nPkts*int64(f.net.HeaderBytes)
	first := int64(f.net.MTU + f.net.HeaderBytes)
	if wire < first {
		first = wire
	}
	fill := f.propSum + sim.Time(float64(first)*8*1e12*f.invBwSum)
	return fill + sim.Time(float64(wire-first)*8*1e12/f.minBw)
}

// Slowdown returns achieved FCT divided by IdealFCT, valid once finished.
func (f *Flow) Slowdown() float64 {
	return float64(f.FCT()) / float64(f.IdealFCT())
}

// TakeDeliveredDelta returns payload bytes delivered since the previous
// call (used by goodput/fairness samplers).
func (f *Flow) TakeDeliveredDelta() int64 {
	d := f.Delivered() - f.deliveredMark
	f.deliveredMark += d
	return d
}

// Fire is the flow's start, run by its shard's start event or, for a flow
// added out of start order, as an event of its own (see shard.queueStart):
// it takes a run slot from the source host's shard, walks the path into
// the slot's buffer — the flow's one walk, over routes AddFlow checked —
// deriving the path constants, copies the forward ports' rates into the
// slot's rate buffer, fills in the slot's cc.Env, initializes congestion
// control and begins sending. A reused slot keeps its buffers and gates,
// and the run is its own timers (see paceTimer and rtoTimer), so starting
// a flow allocates nothing once the shard has carved as many slots as
// flows run at once.
func (f *Flow) Fire() {
	n := f.net
	host := n.hostByNode[f.Spec.Src]
	sh := host.sh
	r := sh.takeRun()
	path := f.walk(host, r.path[:0])
	bps := r.env.HopBps[:0]
	for _, pt := range path[:f.hops] {
		bps = append(bps, pt.bw)
	}
	*r = flowRun{flow: f, net: n, sh: sh, eng: sh.eng, host: host, algo: f.algo,
		size: f.Spec.Size, dst: f.Spec.Dst, hops: f.hops, rtoBase: n.initialRTO(f.baseRTT),
		path: path, gates: r.gates,
		env: cc.Env{LineRateBps: host.port.bw, BaseRTT: f.baseRTT, MTU: n.MTU, HopBps: bps, Rand: sh.rand, Timers: r}}
	r.rto = r.rtoBase
	f.algo, f.run, f.started = nil, r, true
	r.ctl = r.algo.Init(&r.env)
	r.trySend()
}

// flowRun is a flow's run state: the sender side (pacing, window,
// congestion control, RTO), the algorithm's cc.Env, and the receiver side
// (delivery accounting, CNP policy). Packets, timers and gates point at it,
// never at the handle.
//
// The sender side executes on the source host's shard, where the run slot
// is taken and returned; the receiver-side fields are touched only on the
// destination host's shard. Sender and receiver fields never share an
// 8-byte word, so sharded runs are race-free without any per-field
// synchronization.
//
// A slot is six whole cache lines, so slab-carved slots start on a line
// (TestPacketLayout). What trySend and onAck touch on every packet comes
// first, on three lines; then the Env, which the start fills in and the
// algorithm only reads, and the path, which both ends read, on two more;
// the receiver's fields last, on a line of their own.
type flowRun struct {
	eng      *sim.Engine
	sh       *shard
	host     *Host // source host
	net      *Network
	size     int64 // Spec.Size
	sent     int64 // payload bytes sent (next sequence to transmit)
	inflight int64
	nextSend sim.Time
	ctl      cc.Control
	maxSent  int64 // high-water mark of sent; go-back-N rewinds sent below it
	// gapWire/gapRate/gapDur memoize the pacing gap: the controlled rate
	// only changes on ACKs and nearly every packet is full-MTU, so whole
	// windows reuse one TransmitTime result.
	gapWire  int
	gapRate  float64
	gapDur   sim.Time
	finished bool
	rtoArmed bool  // a timeout event is outstanding
	gatesOut int32 // gates scheduled and not yet fired
	acked    int64 // payload bytes acknowledged
	algo     cc.Algorithm
	dst      int // Spec.Dst, which the receiver checks

	// pending/pendingAt track the outstanding pacing wakeup (see
	// paceTimer). The handle is generation-stamped, so cancelling it after
	// it fired is harmless.
	pending   sim.EventID
	pendingAt sim.Time

	// Loss recovery (armed only when Network.LossRecovery is set). The
	// timer (see rtoTimer) is lazy: progress just pushes rtoDeadline
	// forward, and the scheduled event re-arms itself when it fires early,
	// so ACK processing never cancels engine events.
	rtoBase     sim.Time // initial timeout: see Network.initialRTO
	rto         sim.Time // current timeout (doubles on fire; capped at RTOMax when set, always at rtoBackoffCeiling)
	rtoDeadline sim.Time

	// env is the algorithm's cc.Env: filled in at the start, read through
	// the pointer Init was given until the finish. Env.Timers is the run;
	// Env.HopBps is the rate of each forward port, a buffer carved with the
	// slot (see shard.takeRun) and kept across reuse.
	env cc.Env
	// gates is the free list of the liveness gates Schedule wraps around
	// algorithm timers, so periodic timers (DCQCN's alpha/rate) stop
	// allocating once each chain owns a gate. It is kept across reuse.
	gates *ccGate
	next  *flowRun // shard free-list link
	flow  *Flow    // the handle, which the finish fills in
	// path is the flat forwarding path walked at the start: the egress
	// port each switch picks for this flow's data, path[:hops], then for
	// its ACKs, path[hops:]. It is carved with the slot and kept across
	// reuse; hops is len(env.HopBps).
	hops int
	path []*Port

	// Receiver side.
	delivered int64
	lastCNP   sim.Time
	_         [48]byte // to six cache lines
}

// paceTimer and rtoTimer are a run as its pacing wakeup and as its
// retransmission timeout: converting the *flowRun makes a sim.Handler with
// a Fire of its own, so scheduling either timer binds no func value.
type (
	paceTimer flowRun
	rtoTimer  flowRun
)

// Fire is the pacing wakeup.
func (t *paceTimer) Fire() {
	r := (*flowRun)(t)
	r.pending = sim.EventID{}
	r.trySend()
}

// Fire is the retransmission timeout.
func (t *rtoTimer) Fire() { (*flowRun)(t).onRTO() }

// SetControl implements cc.Timers: timer-driven rate updates land here.
func (r *flowRun) SetControl(c cc.Control) {
	if !r.finished {
		r.ctl = c
		r.trySend()
	}
}

// ccGate gates one scheduled algorithm timer on flow liveness; it is the
// timer's event. Gates return to the run's free list the moment they fire
// — before fn runs, so a timer that immediately re-schedules itself
// (DCQCN's alpha and rate chains) reuses the same gate forever, and after
// warm-up a timer tick schedules with zero allocations. A gate that fires
// after the finish may be the last reference to its run, so it offers the
// run back to the shard.
type ccGate struct {
	r    *flowRun
	fn   func()
	next *ccGate // free-list link
}

func (g *ccGate) Fire() {
	r, fn := g.r, g.fn
	g.fn = nil
	g.next, r.gates = r.gates, g
	r.gatesOut--
	if r.finished {
		r.release()
		return
	}
	fn()
}

// Schedule implements cc.Timers: it runs fn after d unless the flow has
// finished by then. Timers scheduled after the flow finished are dropped
// outright.
func (r *flowRun) Schedule(d sim.Time, fn func()) {
	if r.finished {
		return
	}
	g := r.gates
	if g != nil {
		r.gates = g.next
	} else {
		g = &ccGate{r: r}
	}
	g.fn = fn
	r.gatesOut++
	r.eng.Schedule(r.eng.Now()+d, g)
}

// trySend releases as many packets as the window and pacer currently
// allow, then schedules a wakeup at the pacing horizon if more payload
// remains and the window is open. It is idempotent: redundant calls are
// harmless.
func (r *flowRun) trySend() {
	if r.finished {
		return
	}
	now := r.eng.Now()
	for r.sent < r.size {
		if float64(r.inflight) >= r.ctl.WindowBytes {
			return // window closed; an ACK will reopen it
		}
		if now < r.nextSend {
			r.schedule(r.nextSend)
			return
		}
		payload := r.size - r.sent
		if payload > int64(r.net.MTU) {
			payload = int64(r.net.MTU)
		}
		p := r.sh.getPacket()
		p.Kind = Data
		p.run = r
		p.Seq = r.sent
		p.Wire = int32(int(payload) + r.net.HeaderBytes)
		p.SentAt = now
		// Stamp the flat path while the run is hot in cache; switch hops
		// then forward without touching it (see Packet.path).
		p.path = unsafe.SliceData(r.path)
		if int(p.intCap) < r.hops {
			// A stack carved before AddFlow saw a path this long: a fresh,
			// deeper one, never the neighbour's records.
			p.setStack(make([]cc.Telemetry, r.net.maxHops))
		}
		if p.Seq < r.maxSent {
			r.flow.Retransmits++
			r.sh.Retransmits++
		}
		r.sent += payload
		if r.sent > r.maxSent {
			r.maxSent = r.sent
		}
		r.inflight += payload
		r.sh.DataSent++
		// Pace the full wire size at the controlled rate.
		gap := r.paceGap(int(p.Wire))
		if r.nextSend < now {
			r.nextSend = now
		}
		r.nextSend += gap
		if r.net.LossRecovery {
			r.rtoDeadline = now + r.rto
			r.armRTO()
		}
		r.host.port.send(p)
	}
}

// paceGap returns TransmitTime(wire, r.ctl.RateBps) through the run's
// one-entry memo. Wire sizes are never zero, so the zero value cannot
// alias a real entry.
func (r *flowRun) paceGap(wire int) sim.Time {
	if wire == r.gapWire && r.ctl.RateBps == r.gapRate {
		return r.gapDur
	}
	d := sim.TransmitTime(wire, r.ctl.RateBps)
	r.gapWire, r.gapRate, r.gapDur = wire, r.ctl.RateBps, d
	return d
}

// armRTO ensures a timeout event is scheduled. It is a no-op when one is
// already outstanding: the lazy timer re-checks rtoDeadline when it fires.
func (r *flowRun) armRTO() {
	if r.rtoArmed || r.finished {
		return
	}
	r.rtoArmed = true
	r.eng.Schedule(r.rtoDeadline, (*rtoTimer)(r))
}

// onRTO is the retransmission-timeout event body.
// If progress moved the deadline since this event was scheduled, it
// re-arms at the new deadline; otherwise the outstanding window is
// declared lost and go-back-N resends from the last cumulative ACK. A
// timeout that outlived its flow offers the run back to the shard.
func (r *flowRun) onRTO() {
	r.rtoArmed = false
	if r.finished {
		r.release()
		return
	}
	if r.inflight <= 0 {
		return
	}
	now := r.eng.Now()
	if now < r.rtoDeadline {
		r.armRTO()
		return
	}
	r.flow.Timeouts++
	r.sh.RTOFires++
	// Exponential backoff with a hard ceiling. The ceiling applies even
	// with RTOMax unset: unbounded doubling overflows sim.Time after ~50
	// consecutive timeouts (picoseconds in an int64), turning the next
	// deadline negative — an event scheduled in the past. Check the
	// overflow wrap (<= 0) before comparing against the ceiling: a
	// wrapped-negative rto would pass a plain "> ceiling" test.
	r.rto *= 2
	if r.rto <= 0 || r.rto > rtoBackoffCeiling {
		r.rto = rtoBackoffCeiling
	}
	if max := r.net.RTOMax; max > 0 && r.rto > max {
		r.rto = max
	}
	// Everything past the last cumulative ACK is presumed lost: rewind
	// the send cursor and clear the pacing backlog so recovery starts
	// immediately rather than at the stale pacing horizon.
	r.sent = r.acked
	r.inflight = 0
	r.nextSend = now
	r.rtoDeadline = now + r.rto
	r.trySend()
}

// rtoBackoffCeiling bounds exponential RTO backoff when Network.RTOMax is
// unset. One minute of simulated time is far beyond any useful timeout and
// leaves ~17 more doublings before sim.Time (picoseconds, int64) overflows.
const rtoBackoffCeiling = 60 * sim.Second

func (r *flowRun) schedule(at sim.Time) {
	if r.pending.Valid() {
		if r.pendingAt == at {
			return
		}
		r.eng.Cancel(r.pending)
	}
	r.pending = r.eng.Schedule(at, (*paceTimer)(r))
	r.pendingAt = at
}

// onAck processes a cumulative acknowledgement at the sender. Under loss
// the per-flow-FIFO assumption no longer holds: the receiver re-advertises
// its cumulative position for every out-of-sequence arrival, and ACKs for
// data sent before a go-back-N rewind can land after it, so stale and
// duplicate ACKs are normal here rather than impossible.
func (r *flowRun) onAck(p *Packet) {
	newly := p.Seq - r.acked
	if newly <= 0 {
		r.sh.DupAcks++
		return // duplicate or stale cumulative ACK; RTO drives recovery
	}
	r.acked = p.Seq
	r.inflight -= newly
	if r.inflight < 0 {
		// An ACK covering data resent after a spurious timeout: the
		// original and the retransmit were both counted as sent once but
		// the rewind zeroed inflight in between.
		r.inflight = 0
	}
	if r.acked > r.sent {
		// The rewind presumed data lost that was in fact in flight; skip
		// the send cursor past what the receiver now confirms.
		r.sent = r.acked
	}
	now := r.eng.Now()
	if r.acked >= r.size {
		r.finish(now)
		return
	}
	if r.net.LossRecovery {
		// Forward progress: reset backoff and push the timeout out.
		r.rto = r.rtoBase
		r.rtoDeadline = now + r.rto
		r.armRTO()
	}
	r.ctl = r.algo.OnAck(cc.Feedback{
		Now:        now,
		RTT:        now - p.SentAt,
		AckedBytes: r.acked,
		SentBytes:  r.sent,
		NewlyAcked: int(newly),
		ECE:        p.Mark,
		Hops:       p.stack()[:r.hops],
	})
	r.trySend()
}

// finish copies the results into the handle, drops the algorithm and
// offers the run back to the shard. It runs while the final ACK is being
// processed, which is recycled straight after.
func (r *flowRun) finish(now sim.Time) {
	r.finished = true
	f := r.flow
	f.finished, f.FinishedAt = true, now
	f.delivered, f.acked = r.delivered, r.acked
	f.run = nil
	r.algo = nil
	r.net.unfinished.Add(-1)
	if r.pending.Valid() {
		r.eng.Cancel(r.pending)
		r.pending = sim.EventID{}
	}
	r.release()
}

// release returns a finished run to its shard's free list once nothing
// can reach it any more; finish, the last gate and the last timeout each
// offer it. A gate still pending (DCQCN's timers) or an armed timeout
// holds the run until it fires. Packets need no count: a flow that never
// timed out sent every byte once, in order, over one FIFO path, so its
// final ACK is the last packet that names it. A flow that did time out may
// have duplicates and their ACKs anywhere in the fabric, so its slot is
// retired and never reused.
func (r *flowRun) release() {
	if r.gatesOut > 0 || r.rtoArmed || r.flow.Timeouts > 0 || r.net.retireRuns {
		return
	}
	r.next, r.sh.runs = r.sh.runs, r
}
