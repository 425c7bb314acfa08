package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Handler is a scheduled event: the engine calls Fire once, at the event's
// time. It is the one representation the engine stores. An object that is
// its own event — a packet arriving, a port finishing a transmission — is
// scheduled by address, so dispatch loads nothing that hangs off the object
// (the itab word is shared by every event of its type); everything else
// schedules a func() through Func.
type Handler interface{ Fire() }

// Func adapts a func() to Handler. A func value is pointer-shaped, so the
// conversion to the interface stores it directly and does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Engine is a discrete-event simulation scheduler. The zero value is an
// engine with the clock at time zero, as NewEngine returns.
//
// The timer core is a 4-ary heap (see heap.go) and execution order is
// exactly (time, scheduling order): a strict total order, so fixed-seed
// runs are bit-for-bit reproducible across scheduler implementations.
// An event is scheduled once and runs once: there is no cancelling, so a
// client whose plans change lets the superseded event fire and ignores it,
// as the flow timers in internal/net do. Steady-state scheduling is
// allocation-free: handlers that exist before the event does (objects
// scheduled by address, method values bound once) are stored in the queue
// entry itself, and queue entries live in the heap's one backing array.
// Constant-delay events — nearly all of a packet simulation's — bypass the
// heap altogether (see Lane). An event can take its place in the order
// before it is scheduled (see Reserve).
type Engine struct {
	now Time
	seq uint64
	q   eventHeap

	// Delay lanes, the first nLanes registered. laneLive has bit i set while
	// lanes[i] holds an event and laneAt[i] is then its head's time: the
	// merge in next reads these two words-and-a-line, not eight rings.
	laneLive uint32
	nLanes   int
	laneAt   [maxLanes]Time
	lanes    [maxLanes]Lane

	steps    uint64
	live     int // scheduled, not yet executed
	peakLive int // high-water mark of live
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled, not yet executed events; a
// reservation counts once its event is scheduled. It is O(1) — the live
// count is maintained incrementally — so samplers may call it per sample
// point.
func (e *Engine) Pending() int { return e.live }

// EngineStats is a snapshot of the engine's lifetime counters, the
// simulation half of a run's observability record.
type EngineStats struct {
	Steps uint64 `json:"events_executed"`
	// Scheduled counts the sequence numbers handed out: every event
	// scheduled, a reserved one from its reservation on (see Reserve).
	Scheduled uint64 `json:"events_scheduled"`
	// Cancelled is always zero: the engine cancels nothing. It stays for
	// readers that still report it.
	Cancelled uint64 `json:"events_cancelled"`
	Pending   int    `json:"events_pending"`
	// PeakPending is the high-water mark of simultaneously scheduled
	// events, on the heap and on the lanes together.
	PeakPending int `json:"peak_events_pending"`
	// EventAllocs is always zero: an event has no slot of its own to
	// allocate. It stays for readers that still report it.
	EventAllocs uint64 `json:"event_slot_allocs"`
	// Laned counts the executed events that came off a delay lane and so
	// never entered the heap (see Lane); Lanes splits it by lane, in
	// registration order. Steps - Laned is what the heap carried.
	Laned uint64      `json:"events_laned"`
	Lanes []LaneStats `json:"lanes,omitempty"`
}

// LaneStats is one delay lane's share of EngineStats.Laned.
type LaneStats struct {
	Delay  Time   `json:"delay_ps"`
	Events uint64 `json:"events"`
}

// Stats snapshots the engine counters. Reading them never perturbs the
// simulation.
func (e *Engine) Stats() EngineStats {
	var laned uint64
	var lanes []LaneStats
	for i := range e.lanes[:e.nLanes] {
		l := &e.lanes[i]
		laned += l.head
		lanes = append(lanes, LaneStats{Delay: l.d, Events: l.head})
	}
	return EngineStats{
		Steps:       e.steps,
		Scheduled:   e.seq,
		Pending:     e.live,
		PeakPending: e.peakLive,
		Laned:       laned,
		Lanes:       lanes,
	}
}

// At schedules fn to run at absolute time t: Schedule for a func(). It is
// allocation-free when fn is pre-bound (a method value or reused closure).
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, Func(fn)) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, Func(fn)) }

// Schedule schedules h to fire at absolute time t. Scheduling in the past
// panics: it would silently reorder causality. The hot path does not
// allocate: the queue entry goes into the heap's backing array.
func (e *Engine) Schedule(t Time, h Handler) { e.ScheduleReserved(t, e.Reserve(), h) }

// Reservation is an event's place among the events of one time, taken before
// the event is scheduled: see Reserve.
type Reservation uint64

// Reserve takes the next sequence number for an event that
// ScheduleReserved schedules later. Ties at one time run in sequence order,
// so the reserved event runs exactly where it would had it been scheduled
// now: a caller that learns an event's time early and its handler's place
// late — a flow start, queued behind the starts before it — keeps the
// order without keeping the event pending. Stats counts a reservation as
// scheduled at once and as pending only once its event is scheduled.
func (e *Engine) Reserve() Reservation {
	r := Reservation(e.seq)
	e.seq++
	return r
}

// ScheduleReserved schedules h to fire at absolute time t under r, which
// Reserve handed out and no event has used: Schedule with the sequence
// number taken at reservation. Scheduling in the past panics, as for
// Schedule.
func (e *Engine) ScheduleReserved(t Time, r Reservation, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.q.push(entry{at: t, seq: uint64(r), h: h})
	e.live++
	if e.live > e.peakLive {
		e.peakLive = e.live
	}
}

// Lane is the engine's FIFO of pending events that were all scheduled a
// constant delay d ahead — the way to schedule what a link's propagation
// delay schedules, and what a port's serialization of a standard-size packet
// schedules: between them nearly all of a packet simulation's events. The
// clock never runs backwards and seq only counts up, so the keys (now+d, seq)
// one lane hands out are already in execution order: a lane is a ring
// appended at the tail and consumed at the head, and the engine merges the
// lane heads with the heap root by (at, seq) wherever it dequeues (see
// next). The total order is exactly what After(d, fn) gives; only the two
// sifts are gone.
type Lane struct {
	e *Engine
	d Time
	// ring has power-of-two length; entries [head, tail) are pending at
	// index mod len(ring). Both only count up, so head is also the number
	// of events the lane has executed. An entry is the heap's, written once
	// and read once, in address order, and never moved or sorted. A nil ring
	// is a delay past maxLanes: After then schedules on the heap.
	ring       []entry
	head, tail uint64
	i          int // index in e.lanes, e.laneAt and e.laneLive
}

// maxLanes bounds the lanes of one engine, because every dequeue compares
// every live lane head. The paper's 100G/400G fat-tree has five constant
// delays — one link delay, and a full data packet and an ACK at each rate —
// and the dumbbells a few more; a topology with hundreds must cost what it
// would without lanes, not O(delays) per event. Eight head times are one
// cache line of laneAt. laneRingMin is a ring's initial length; it doubles
// when full. lanePrefetch is how far past a lane's new head next prefetches
// the handler object; distances 0 to 2 measure alike, so it is no knob.
const (
	maxLanes     = 8
	laneRingMin  = 64
	lanePrefetch = 1
)

// Lane returns the engine's lane for delay d, registering it on first use.
// Past maxLanes distinct delays it returns a lane that schedules through
// Schedule: same order, no saving. A negative delay panics.
func (e *Engine) Lane(d Time) *Lane {
	if d < 0 {
		panic(fmt.Sprintf("sim: lane with negative delay %v", d))
	}
	for i := range e.lanes[:e.nLanes] {
		if l := &e.lanes[i]; l.d == d {
			return l
		}
	}
	if e.nLanes == maxLanes {
		return &Lane{e: e, d: d}
	}
	l := &e.lanes[e.nLanes]
	*l = Lane{e: e, d: d, ring: make([]entry, laneRingMin), i: e.nLanes}
	e.nLanes++
	return l
}

// After schedules h to fire the lane's delay after the current time,
// growing the ring when it is full. It panics, as Engine.After does, when
// that time overflows.
func (l *Lane) After(h Handler) {
	e := l.e
	at := e.now + l.d
	if at < e.now || l.ring == nil {
		e.Schedule(at, h)
		return
	}
	if l.tail-l.head == uint64(len(l.ring)) {
		old := l.ring
		l.ring = make([]entry, 2*len(old))
		for i := l.head; i != l.tail; i++ {
			l.ring[i&uint64(len(l.ring)-1)] = old[i&uint64(len(old)-1)]
		}
	}
	if l.head == l.tail {
		e.laneAt[l.i] = at
		e.laneLive |= 1 << l.i
	}
	l.ring[l.tail&uint64(len(l.ring)-1)] = entry{at: at, seq: e.seq, h: h}
	l.tail++
	e.seq++
	e.live++
	if e.live > e.peakLive {
		e.peakLive = e.live
	}
}

// front is the lane's head entry; the lane must hold one.
func (l *Lane) front() *entry { return &l.ring[l.head&uint64(len(l.ring)-1)] }

// handlerData returns h's data word, loading nothing behind it: the object's
// address for a pointer handler, the func value for a Func.
func handlerData(h Handler) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(&h))[1] }

// next is the one place events are dequeued. The next event is the smaller
// (at, seq) of the heap root and the lane heads; if there is one and its
// time is at most limit, next reports that time and, when run is set,
// consumes the event and fires its handler. Otherwise it reports false and
// leaves the clock alone.
//
// Step, StepBefore, RunUntil and NextEventTime are all this function: a
// dequeue site with its own copy of the merge that forgot the lanes would
// reorder events, or stall the sharded epoch loop, silently. The body is
// fused rather than layered (peek, then pop) because at tens of millions
// of events per run a second call is measurable.
//
// The lane scan compares head times out of laneAt, one cache line, and goes
// to a ring — a line of its own per lane — only for seq on an exact time tie
// and for the winner. Which lanes hold an event comes from laneLive, not
// from a sentinel time: every Time, the last one included, is a real key.
func (e *Engine) next(limit Time, run bool) (Time, bool) {
	var at Time
	var ln *Lane // the lane whose head is the smallest, at at
	for m := e.laneLive; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if t := e.laneAt[i]; ln == nil || t < at || t == at && e.lanes[i].front().seq < ln.front().seq {
			at, ln = t, &e.lanes[i]
		}
	}
	q := &e.q
	if len(q.h) > 0 {
		if en := &q.h[0]; ln == nil || en.at < at || en.at == at && en.seq < ln.front().seq {
			at, ln = en.at, nil // the heap root goes first
		}
	}
	if ln == nil && len(q.h) == 0 || at > limit {
		return 0, false
	}
	if !run {
		return at, true
	}
	e.now = at
	e.live--
	e.steps++
	var h Handler
	if ln != nil {
		f := ln.front()
		h, f.h = f.h, nil
		ln.head++
		if ln.head == ln.tail {
			e.laneLive &^= 1 << ln.i
		} else {
			e.laneAt[ln.i] = ln.front().at
			// A lane knows its future: the entry past the head fires a few hundred
			// ns of host time from now, and at fabric scale its object is out of cache.
			if a := ln.head + lanePrefetch; a < ln.tail {
				Prefetch(handlerData(ln.ring[a&uint64(len(ln.ring)-1)].h))
			}
		}
	} else {
		h = q.h[0].h
		q.pop()
	}
	h.Fire()
	return at, true
}

// Step executes the next event. It reports whether an event was executed;
// false means no events are pending.
func (e *Engine) Step() bool {
	_, ok := e.next(maxTime, true)
	return ok
}

// StepBefore executes the next event if its time is strictly below end.
// It reports whether an event was executed; false means nothing is pending
// or the next live event is at or past end (the clock is left untouched in
// both cases). This is the epoch primitive of the parallel runner: a shard
// repeatedly calls StepBefore(horizon) and then parks at the barrier.
func (e *Engine) StepBefore(end Time) bool {
	if end <= 0 {
		return false // no event is scheduled before time zero
	}
	_, ok := e.next(end-1, true)
	return ok
}

// NextEventTime returns the time of the next event, or false when none is
// pending. It does not advance the clock.
func (e *Engine) NextEventTime() (Time, bool) {
	return e.next(maxTime, false)
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled exactly at t are executed.
func (e *Engine) RunUntil(t Time) {
	for _, ok := e.next(t, true); ok; _, ok = e.next(t, true) {
	}
	e.now = max(e.now, t)
}
