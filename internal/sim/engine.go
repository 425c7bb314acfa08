package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// EventID is a generation-stamped handle to a scheduled event. The zero
// EventID is invalid (Valid reports false) and is safe to Cancel.
//
// Handles are stamped with the generation of the event slot they reference.
// A slot's generation advances every time its event executes or is
// cancelled, so a handle retained past its event's lifetime goes stale
// rather than aliasing whatever event later reuses the slot: Cancel on a
// stale handle is a guaranteed no-op. (The previous *Event API had exactly
// that aliasing hazard — a pointer held across the event's execution could
// cancel an unrelated recycled event.)
type EventID struct {
	idx uint32 // slot index + 1; 0 means "no event"
	gen uint32 // slot generation at scheduling time
}

// Valid reports whether the handle refers to an event at all (it may still
// be stale; Cancel checks that).
func (id EventID) Valid() bool { return id.idx != 0 }

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

// slot holds a scheduled event's handler. Slots are recycled through a
// free list; gen counts recycles so stale EventIDs and stale queue entries
// are detectable.
type slot struct {
	h   Handler
	gen uint32
}

// Engine is a discrete-event simulation scheduler. The zero value is not
// ready to use; create one with NewEngine.
//
// The timer core is a 4-ary heap (see heap.go) and execution order is
// exactly (time, scheduling order): a strict total order, so fixed-seed
// runs are bit-for-bit reproducible across scheduler implementations.
// Steady-state scheduling is allocation-free: handlers that exist before
// the event does (objects scheduled by address, method values bound once)
// are stored in recycled slots, and queue entries live in the heap's one
// backing array. Constant-delay events — nearly all of a packet
// simulation's — bypass the heap altogether (see Lane). An event can take
// its place in the order before it is scheduled (see Reserve).
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

	slots []slot   // event arena; index = EventID.idx-1
	free  []uint32 // recycled slot indexes

	steps      uint64
	live       int    // scheduled, not yet executed or cancelled
	cancelled  uint64 // events cancelled over the engine's lifetime
	peakLive   int    // high-water mark of live
	slotAllocs uint64 // fresh slot allocations (arena growth)
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{
		slots: make([]slot, 0, 1024),
		free:  make([]uint32, 0, 1024),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled (not yet executed or cancelled)
// events; a reservation counts once its event is scheduled. It is O(1) — the live count is maintained incrementally — so
// samplers may call it per sample point.
func (e *Engine) Pending() int { return e.live }

// EngineStats is a snapshot of the engine's lifetime counters, the
// simulation half of a run's observability record.
type EngineStats struct {
	Steps uint64 `json:"events_executed"`
	// Scheduled counts the sequence numbers handed out: every event
	// scheduled, a reserved one from its reservation on (see Reserve).
	Scheduled uint64 `json:"events_scheduled"`
	Cancelled uint64 `json:"events_cancelled"`
	Pending   int    `json:"events_pending"`
	// PeakPending is the high-water mark of simultaneously scheduled
	// events, on the heap and on the lanes together.
	PeakPending int `json:"peak_events_pending"`
	// EventAllocs counts fresh event-slot allocations: arena growth, as
	// opposed to free-list reuse. In steady state it plateaus at the peak
	// concurrent event count — a rising value on a stable workload means
	// the scheduling hot path is allocating.
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
		Cancelled:   e.cancelled,
		Pending:     e.live,
		PeakPending: e.peakLive,
		EventAllocs: e.slotAllocs,
		Laned:       laned,
		Lanes:       lanes,
	}
}

// At schedules fn to run at absolute time t: Schedule for a func(). It is
// allocation-free when fn is pre-bound (a method value or reused closure).
func (e *Engine) At(t Time, fn func()) EventID { return e.Schedule(t, Func(fn)) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) EventID { return e.Schedule(e.now+d, Func(fn)) }

// Schedule schedules h to fire at absolute time t. Scheduling in the past
// panics: it would silently reorder causality. The hot path does not
// allocate: the slot comes from the free list and the queue entry goes into
// the heap's backing array.
func (e *Engine) Schedule(t Time, h Handler) EventID { return e.ScheduleReserved(t, e.Reserve(), h) }

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
func (e *Engine) ScheduleReserved(t Time, r Reservation, h Handler) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var idx uint32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = uint32(len(e.slots) - 1)
		e.slotAllocs++
	}
	s := &e.slots[idx]
	s.h = h
	e.q.push(entry{at: t, seq: uint64(r), idx: idx, gen: s.gen})
	e.live++
	if e.live > e.peakLive {
		e.peakLive = e.live
	}
	return EventID{idx: idx + 1, gen: s.gen}
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
// sifts and the slot recycle are gone. Lane events cannot be cancelled, so
// they need no slot, generation or EventID.
type Lane struct {
	e *Engine
	d Time
	// ring has power-of-two length; entries [head, tail) are pending at
	// index mod len(ring). Both only count up, so head is also the number
	// of events the lane has executed. A nil ring is a delay past maxLanes:
	// After then schedules on the heap.
	ring       []laneEntry
	head, tail uint64
	i          int // index in e.lanes, e.laneAt and e.laneLive
}

// laneEntry is one pending lane event. Unlike a heap entry it carries its
// handler, two words the collector scans; that is affordable here because
// a lane entry is written once and read once, in address order, and never
// moved or sorted, and there is one ring per distinct delay, not per link.
type laneEntry struct {
	at  Time
	seq uint64
	h   Handler
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
	*l = Lane{e: e, d: d, ring: make([]laneEntry, laneRingMin), i: e.nLanes}
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
		l.ring = make([]laneEntry, 2*len(old))
		for i := l.head; i != l.tail; i++ {
			l.ring[i&uint64(len(l.ring)-1)] = old[i&uint64(len(old)-1)]
		}
	}
	if l.head == l.tail {
		e.laneAt[l.i] = at
		e.laneLive |= 1 << l.i
	}
	l.ring[l.tail&uint64(len(l.ring)-1)] = laneEntry{at: at, seq: e.seq, h: h}
	l.tail++
	e.seq++
	e.live++
	if e.live > e.peakLive {
		e.peakLive = e.live
	}
}

// front is the lane's head entry; the lane must hold one.
func (l *Lane) front() *laneEntry { return &l.ring[l.head&uint64(len(l.ring)-1)] }

// handlerData returns h's data word, loading nothing behind it: the object's
// address for a pointer handler, the func value for a Func.
func handlerData(h Handler) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(&h))[1] }

// Cancel prevents a scheduled event from running. The slot (and its
// handler reference) is released immediately; the 24-byte queue entry is
// discarded lazily when it surfaces at the heap root. Cancelling an
// already-executed, already-cancelled, stale, or zero handle is a no-op —
// the generation stamp guarantees a retained handle can never cancel an
// unrelated event that reused the slot.
func (e *Engine) Cancel(id EventID) {
	if id.idx == 0 {
		return
	}
	idx := id.idx - 1
	if int(idx) >= len(e.slots) {
		return
	}
	s := &e.slots[idx]
	if s.gen != id.gen || s.h == nil {
		return
	}
	s.h = nil
	s.gen++
	e.free = append(e.free, idx)
	e.live--
	e.cancelled++
}

// next is the one place events are dequeued. The next event is the smaller
// (at, seq) of the heap root — cancelled corpses are popped as they
// surface — and the lane heads; if there is one and its time is at most
// limit, next reports that time and, when run is set, consumes the event
// and fires its handler. Otherwise it reports false and leaves the clock
// alone.
//
// Step, StepBefore, RunUntil and NextEventTime are all this function: a
// dequeue site with its own copy of the merge that forgot the lanes would
// reorder events, or stall the sharded epoch loop, silently. The body is
// fused rather than layered (peek, then pop) because at tens of millions
// of events per run a second call and a second load of the slot are
// measurable.
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
	var s *slot
	var idx uint32
	for len(q.h) > 0 {
		en := q.h[0]
		sl := &e.slots[en.idx]
		if sl.gen != en.gen {
			q.pop() // cancelled corpse
			continue
		}
		if ln == nil || en.at < at || en.at == at && en.seq < ln.front().seq {
			at, ln, s, idx = en.at, nil, sl, en.idx
		}
		break
	}
	if ln == nil && s == nil || at > limit {
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
		q.pop()
		h, s.h = s.h, nil
		s.gen++
		e.free = append(e.free, idx)
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

// NextEventTime returns the time of the next live event, or false when
// none is pending. It does not advance the clock (cancelled corpses at the
// heap root are discarded as a side effect).
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
