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
// reach it (see flowRun.release). Handles are carved from the network's
// flow slabs in AddFlow order (see Network.Flow).
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

	baseRTT  sim.Time
	idealFCT sim.Time

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

	hops     int32
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
func (f *Flow) Hops() int { return int(f.hops) }

// FCT returns the flow completion time measured to last-byte delivery at
// the receiver, valid once finished.
func (f *Flow) FCT() sim.Time { return f.DeliveredAt - f.Spec.Start }

// IdealFCT returns the theoretical minimum completion time on an unloaded
// path (the paper's FCT-slowdown denominator: propagation plus
// serialization), fixed by the start's walk.
func (f *Flow) IdealFCT() sim.Time { return f.idealFCT }

// Slowdown returns achieved FCT divided by IdealFCT, valid once finished.
func (f *Flow) Slowdown() float64 {
	return float64(f.FCT()) / float64(f.IdealFCT())
}

// Fire is the flow's start, run by its shard's start event or, for a flow
// added out of start order, as an event of its own (see shard.queueStart):
// it takes a run slot from the source host's shard, walks the path into
// the slot's buffer — the flow's one walk, over routes AddFlow checked —
// deriving the path constants, copies the forward ports' rates into the
// slot's rate buffer, fills in the slot's cc.Env, initializes congestion
// control and begins sending. A reused slot keeps its buffers, and the run
// is its own timers (see paceTimer and rtoTimer), so starting a flow
// allocates nothing once the shard has carved as many slots as flows run at
// once.
func (f *Flow) Fire() {
	n := f.net
	host := n.hostByNode[f.Spec.Src]
	sh := host.sh
	r := sh.takeRun()
	path, _ := f.walk(host, r.path[:0])
	bps := r.env.HopBps[:0]
	for _, pt := range path[:f.hops] {
		bps = append(bps, pt.bw)
	}
	*r = flowRun{flow: f, net: n, sh: sh, eng: sh.eng, host: host, algo: f.algo,
		size: f.Spec.Size, dst: f.Spec.Dst, hops: int(f.hops), rtoBase: initialRTO(f.baseRTT),
		lossy: n.lossy(), path: path,
		env: cc.Env{LineRateBps: host.port.bw, BaseRTT: f.baseRTT, MTU: n.MTU, HopBps: bps, Rand: sh.rand}}
	r.rto = r.rtoBase
	f.algo, f.run, f.started = nil, r, true
	r.ctl = r.algo.Init(&r.env)
	r.trySend()
}

// flowRun is a flow's run state: the sender side (pacing, window,
// congestion control, RTO), the algorithm's cc.Env, and the receiver side
// (delivery accounting). Packets and timers point at it, never at the
// handle.
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
	lossy    bool  // the network was lossy at the start: recovery is armed
	rtoArmed bool  // a timeout event is outstanding
	acked    int64 // payload bytes acknowledged
	algo     cc.Algorithm
	dst      int // Spec.Dst, which the receiver checks

	// wakeAt is the time of the pacing wakeup trySend last scheduled, and
	// waking is set until that wakeup fires (see schedule).
	wakeAt sim.Time
	waking bool

	// Loss recovery (armed only on a lossy network, see Network.lossy). The
	// timer (see rtoTimer) is lazy: progress just pushes rtoDeadline
	// forward, and the scheduled event re-arms itself when it fires early,
	// so ACK processing never cancels engine events.
	rtoBase     sim.Time // initial timeout: see initialRTO
	rto         sim.Time // current timeout (doubles on fire, up to rtoMax)
	rtoDeadline sim.Time

	// env is the algorithm's cc.Env: filled in at the start, read through
	// the pointer Init was given until the finish. Env.HopBps is the rate
	// of each forward port, a buffer carved with the slot (see
	// shard.takeRun) and kept across reuse.
	env  cc.Env
	next *flowRun // shard free-list link
	flow *Flow    // the handle, which the finish fills in
	// path is the flat forwarding path walked at the start: the egress
	// port each switch picks for this flow's data, path[:hops], then for
	// its ACKs, path[hops:]. It is carved with the slot and kept across
	// reuse; hops is len(env.HopBps).
	hops int
	path []*Port
	_    [24]byte // to the sixth line

	// Receiver side, on a line of its own.
	delivered int64
	_         [56]byte // to six cache lines
}

// paceTimer and rtoTimer are a run as its pacing wakeup and as its
// retransmission timeout: converting the *flowRun makes a sim.Handler with
// a Fire of its own, so scheduling either timer binds no func value.
type (
	paceTimer flowRun
	rtoTimer  flowRun
)

// Fire is the pacing wakeup. A wakeup that schedule has since superseded
// fires too, and its trySend changes nothing.
func (t *paceTimer) Fire() {
	r := (*flowRun)(t)
	if r.eng.Now() == r.wakeAt {
		r.waking = false
	}
	r.trySend()
}

// Fire is the retransmission timeout.
func (t *rtoTimer) Fire() { (*flowRun)(t).onRTO() }

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
		if r.lossy {
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
	// Exponential backoff up to rtoMax. rto never exceeds rtoMax, so the
	// doubling cannot wrap sim.Time.
	r.rto = min(2*r.rto, rtoMax)
	// Everything past the last cumulative ACK is presumed lost: rewind
	// the send cursor and clear the pacing backlog so recovery starts
	// immediately rather than at the stale pacing horizon.
	r.sent = r.acked
	r.inflight = 0
	r.nextSend = now
	r.rtoDeadline = now + r.rto
	r.trySend()
}

// schedule makes sure a pacing wakeup is pending at at, the pacing horizon
// nextSend. The wakeup is lazy, like the retransmission timer: a superseded
// one is left to fire, never cancelled. That is exact because nextSend only
// grows by a send, a send at now needs now >= nextSend, and so the wakeup a
// send supersedes is due at now and fires straight after the event that
// sent; the run is then at rest, and its trySend finds the new wakeup
// already pending at nextSend and takes no sequence number. For the same
// reason a flow cannot finish with a wakeup pending: until it fires, the
// bytes it is to send are unsent. Only a timeout can move nextSend back
// (onRTO) and leave a superseded wakeup in the future, and a flow that
// timed out retires its run (see release), so no wakeup reaches a reused
// run.
func (r *flowRun) schedule(at sim.Time) {
	if r.waking && r.wakeAt == at {
		return
	}
	r.eng.Schedule(at, (*paceTimer)(r))
	r.wakeAt, r.waking = at, true
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
	if r.lossy {
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
	r.release()
}

// release returns a finished run to its shard's free list once nothing
// can reach it any more; finish and the last timeout each offer it. An
// armed timeout holds the run until it fires. Pacing wakeups and packets
// need no count: a flow that never timed out has no wakeup pending at its
// finish (see schedule), and it sent every byte once, in order, over one
// FIFO path, so its final ACK is the last packet that names it. A flow that
// did time out may have a superseded wakeup pending, and duplicates and
// their ACKs anywhere in the fabric, so its slot is retired and never
// reused.
func (r *flowRun) release() {
	if r.rtoArmed || r.flow.Timeouts > 0 || r.net.retireRuns {
		return
	}
	r.next, r.sh.runs = r.sh.runs, r
}
