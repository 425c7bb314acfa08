package net

import (
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

// Flow is the runtime state of one flow: the sender side (pacing, window,
// congestion control) and the receiver side (delivery accounting, CNP
// policy). Flows are created with Network.AddFlow, which carves them from
// the network's flow slab.
type Flow struct {
	Spec FlowSpec

	net *Network
	// sh/eng are the source host's execution shard and its engine: the
	// whole sender side (start, pacing, congestion control, RTO, ACK
	// processing) runs there. The receiver-side fields below are touched
	// only on the destination host's shard; sender and receiver fields
	// never share an 8-byte word, so sharded runs are race-free without
	// any per-field synchronization.
	sh   *shard
	eng  *sim.Engine
	host *Host // source host
	algo cc.Algorithm
	ctl  cc.Control

	sent     int64 // payload bytes sent (next sequence to transmit)
	acked    int64 // payload bytes acknowledged
	inflight int64
	maxSent  int64 // high-water mark of sent; go-back-N rewinds sent below it
	nextSend sim.Time
	// pending/pendingAt track the outstanding pacing wakeup (see
	// paceTimer). The handle is generation-stamped, so cancelling it after
	// it fired is harmless.
	pending   sim.EventID
	pendingAt sim.Time

	// Loss recovery (armed only when Network.LossRecovery is set). The
	// timer (see rtoTimer) is lazy: progress just pushes rtoDeadline
	// forward, and the scheduled event re-arms itself when it fires early,
	// so ACK processing never cancels engine events.
	rtoBase     sim.Time // initial timeout: max(RTOMin, 4*baseRTT)
	rto         sim.Time // current timeout (doubles on fire; capped at RTOMax when set, always at rtoBackoffCeiling)
	rtoDeadline sim.Time

	// Retransmits counts data packets this flow re-sent; Timeouts counts
	// RTO fires that triggered go-back-N recovery.
	Retransmits int64
	Timeouts    int64

	started  bool
	finished bool
	rtoArmed bool // a timeout event is outstanding
	// FinishedAt is valid once finished; DeliveredAt is when the last
	// payload byte reached the receiver (FinishedAt additionally waits for
	// the final ACK).
	FinishedAt  sim.Time
	DeliveredAt sim.Time

	hops     int
	baseRTT  sim.Time
	propSum  sim.Time // one-way propagation along the path
	invBwSum float64  // sum over forward links of 1/bandwidth (s/bit)
	minBw    float64  // bottleneck link bandwidth on the path

	// path is the flat forwarding path, resolved by Network.pathInfo: the
	// egress port each switch picks for this flow's data, path[:hops], then
	// for its ACKs, path[hops:]. It is carved from the network's path slab
	// with len == cap (see carvePath).
	path []*Port

	// gates is the free list of the liveness gates Schedule wraps around
	// algorithm timers, so periodic timers (DCQCN's alpha/rate) stop
	// allocating once each chain owns a gate.
	gates *ccGate

	// gapWire/gapRate/gapDur memoize the pacing gap: the controlled rate
	// only changes on ACKs and nearly every packet is full-MTU, so whole
	// windows reuse one TransmitTime result.
	gapWire int
	gapRate float64
	gapDur  sim.Time

	// Receiver side.
	delivered int64
	lastCNP   sim.Time

	// deliveredMark supports goodput sampling (metrics take deltas).
	deliveredMark int64
}

// Finished reports whether all payload bytes have been acknowledged.
func (f *Flow) Finished() bool { return f.finished }

// Started reports whether the flow has begun sending.
func (f *Flow) Started() bool { return f.started }

// Active reports whether the flow has started and not finished.
func (f *Flow) Active() bool { return f.started && !f.finished }

// Delivered returns payload bytes received at the destination.
func (f *Flow) Delivered() int64 { return f.delivered }

// Acked returns payload bytes acknowledged at the sender.
func (f *Flow) Acked() int64 { return f.acked }

// BaseRTT returns the flow's unloaded round-trip time (propagation plus
// MTU serialization on the forward path and ACK serialization back).
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
	d := f.delivered - f.deliveredMark
	f.deliveredMark = f.delivered
	return d
}

// Fire is the flow's start event, posted by AddFlow: it initializes
// congestion control and begins sending. A flow is its own start handler,
// and its timers are the flow too (see paceTimer and rtoTimer), so starting
// one allocates nothing.
func (f *Flow) Fire() {
	f.started = true
	f.ctl = f.algo.Init(f.env())
	f.trySend()
}

// paceTimer and rtoTimer are a flow as its pacing wakeup and as its
// retransmission timeout: converting the *Flow makes a sim.Handler with a
// Fire of its own, so scheduling either timer binds no func value.
type (
	paceTimer Flow
	rtoTimer  Flow
)

// Fire is the pacing wakeup.
func (t *paceTimer) Fire() {
	f := (*Flow)(t)
	f.pending = sim.EventID{}
	f.trySend()
}

// Fire is the retransmission timeout.
func (t *rtoTimer) Fire() { (*Flow)(t).onRTO() }

// env builds the cc.Env for this flow's algorithm; the flow is the Env's
// Timers.
func (f *Flow) env() cc.Env {
	return cc.Env{
		LineRateBps: f.host.port.bw,
		BaseRTT:     f.baseRTT,
		MTU:         f.net.MTU,
		Hops:        f.hops,
		Rand:        f.sh.rand,
		Timers:      f,
	}
}

// SetControl implements cc.Timers: timer-driven rate updates land here.
func (f *Flow) SetControl(c cc.Control) {
	if !f.finished {
		f.ctl = c
		f.trySend()
	}
}

// ccGate gates one scheduled algorithm timer on flow liveness; it is the
// timer's event. Gates return to the flow's free list the moment they fire
// — before fn runs, so a timer that immediately re-schedules itself
// (DCQCN's alpha and rate chains) reuses the same gate forever, and after
// warm-up a timer tick schedules with zero allocations.
type ccGate struct {
	f    *Flow
	fn   func()
	next *ccGate // free-list link
}

func (g *ccGate) Fire() {
	f, fn := g.f, g.fn
	g.fn = nil
	g.next, f.gates = f.gates, g
	if !f.finished {
		fn()
	}
}

// Schedule implements cc.Timers: it runs fn after d unless the flow has
// finished by then. Timers scheduled after the flow finished are dropped
// outright.
func (f *Flow) Schedule(d sim.Time, fn func()) {
	if f.finished {
		return
	}
	g := f.gates
	if g != nil {
		f.gates = g.next
	} else {
		g = &ccGate{f: f}
	}
	g.fn = fn
	f.eng.Schedule(f.eng.Now()+d, g)
}

// trySend releases as many packets as the window and pacer currently
// allow, then schedules a wakeup at the pacing horizon if more payload
// remains and the window is open. It is idempotent: redundant calls are
// harmless.
func (f *Flow) trySend() {
	if f.finished {
		return
	}
	now := f.eng.Now()
	for f.sent < f.Spec.Size {
		if float64(f.inflight) >= f.ctl.WindowBytes {
			return // window closed; an ACK will reopen it
		}
		if now < f.nextSend {
			f.schedule(f.nextSend)
			return
		}
		payload := f.Spec.Size - f.sent
		if payload > int64(f.net.MTU) {
			payload = int64(f.net.MTU)
		}
		p := f.sh.getPacket()
		p.Kind = Data
		p.Flow = f
		p.Src = int32(f.Spec.Src)
		p.Dst = int32(f.Spec.Dst)
		p.Seq = f.sent
		p.Payload = int32(payload)
		p.Wire = int32(int(payload) + f.net.HeaderBytes)
		p.SentAt = now
		// Stamp the flat path while the Flow is hot in cache; switch hops
		// then forward without touching it (see Packet.path).
		p.path = f.path
		if p.Seq < f.maxSent {
			f.Retransmits++
			f.sh.Retransmits++
		}
		f.sent += payload
		if f.sent > f.maxSent {
			f.maxSent = f.sent
		}
		f.inflight += payload
		f.sh.DataSent++
		// Pace the full wire size at the controlled rate.
		gap := f.paceGap(int(p.Wire))
		if f.nextSend < now {
			f.nextSend = now
		}
		f.nextSend += gap
		if f.net.LossRecovery {
			f.rtoDeadline = now + f.rto
			f.armRTO()
		}
		f.host.port.send(p)
	}
}

// paceGap returns TransmitTime(wire, f.ctl.RateBps) through the flow's
// one-entry memo. Wire sizes are never zero, so the zero value cannot
// alias a real entry.
func (f *Flow) paceGap(wire int) sim.Time {
	if wire == f.gapWire && f.ctl.RateBps == f.gapRate {
		return f.gapDur
	}
	d := sim.TransmitTime(wire, f.ctl.RateBps)
	f.gapWire, f.gapRate, f.gapDur = wire, f.ctl.RateBps, d
	return d
}

// armRTO ensures a timeout event is scheduled. It is a no-op when one is
// already outstanding: the lazy timer re-checks rtoDeadline when it fires.
func (f *Flow) armRTO() {
	if f.rtoArmed || f.finished {
		return
	}
	f.rtoArmed = true
	f.eng.Schedule(f.rtoDeadline, (*rtoTimer)(f))
}

// onRTO is the retransmission-timeout event body.
// If progress moved the deadline since this event was scheduled, it
// re-arms at the new deadline; otherwise the outstanding window is
// declared lost and go-back-N resends from the last cumulative ACK.
func (f *Flow) onRTO() {
	f.rtoArmed = false
	if f.finished || f.inflight <= 0 {
		return
	}
	now := f.eng.Now()
	if now < f.rtoDeadline {
		f.armRTO()
		return
	}
	f.Timeouts++
	f.sh.RTOFires++
	// Exponential backoff with a hard ceiling. The ceiling applies even
	// with RTOMax unset: unbounded doubling overflows sim.Time after ~50
	// consecutive timeouts (picoseconds in an int64), turning the next
	// deadline negative — an event scheduled in the past. Check the
	// overflow wrap (<= 0) before comparing against the ceiling: a
	// wrapped-negative rto would pass a plain "> ceiling" test.
	f.rto *= 2
	if f.rto <= 0 || f.rto > rtoBackoffCeiling {
		f.rto = rtoBackoffCeiling
	}
	if max := f.net.RTOMax; max > 0 && f.rto > max {
		f.rto = max
	}
	// Everything past the last cumulative ACK is presumed lost: rewind
	// the send cursor and clear the pacing backlog so recovery starts
	// immediately rather than at the stale pacing horizon.
	f.sent = f.acked
	f.inflight = 0
	f.nextSend = now
	f.rtoDeadline = now + f.rto
	f.trySend()
}

// rtoBackoffCeiling bounds exponential RTO backoff when Network.RTOMax is
// unset. One minute of simulated time is far beyond any useful timeout and
// leaves ~17 more doublings before sim.Time (picoseconds, int64) overflows.
const rtoBackoffCeiling = 60 * sim.Second

func (f *Flow) schedule(at sim.Time) {
	if f.pending.Valid() {
		if f.pendingAt == at {
			return
		}
		f.eng.Cancel(f.pending)
	}
	f.pending = f.eng.Schedule(at, (*paceTimer)(f))
	f.pendingAt = at
}

// onAck processes a cumulative acknowledgement at the sender. Under loss
// the per-flow-FIFO assumption no longer holds: the receiver re-advertises
// its cumulative position for every out-of-sequence arrival, and ACKs for
// data sent before a go-back-N rewind can land after it, so stale and
// duplicate ACKs are normal here rather than impossible.
func (f *Flow) onAck(p *Packet) {
	newly := p.AckSeq - f.acked
	if newly <= 0 {
		f.sh.DupAcks++
		return // duplicate or stale cumulative ACK; RTO drives recovery
	}
	f.acked = p.AckSeq
	f.inflight -= newly
	if f.inflight < 0 {
		// An ACK covering data resent after a spurious timeout: the
		// original and the retransmit were both counted as sent once but
		// the rewind zeroed inflight in between.
		f.inflight = 0
	}
	if f.acked > f.sent {
		// The rewind presumed data lost that was in fact in flight; skip
		// the send cursor past what the receiver now confirms.
		f.sent = f.acked
	}
	now := f.eng.Now()
	if f.acked >= f.Spec.Size {
		f.finish(now)
		return
	}
	if f.net.LossRecovery {
		// Forward progress: reset backoff and push the timeout out.
		f.rto = f.rtoBase
		f.rtoDeadline = now + f.rto
		f.armRTO()
	}
	f.ctl = f.algo.OnAck(cc.Feedback{
		Now:        now,
		RTT:        now - p.SentAt,
		SentAt:     p.SentAt,
		AckedBytes: f.acked,
		SentBytes:  f.sent,
		NewlyAcked: int(newly),
		ECE:        p.ECE,
		Hops:       p.hops,
	})
	f.trySend()
}

func (f *Flow) finish(now sim.Time) {
	f.finished = true
	f.FinishedAt = now
	f.net.unfinished.Add(-1)
	if f.pending.Valid() {
		f.eng.Cancel(f.pending)
		f.pending = sim.EventID{}
	}
}
