package sim

import "fmt"

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

// slot holds a scheduled event's callback. Slots are recycled through a
// free list; gen counts recycles so stale EventIDs and stale queue entries
// are detectable.
type slot struct {
	fn  func()
	gen uint32
}

// Engine is a discrete-event simulation scheduler. The zero value is not
// ready to use; create one with NewEngine.
//
// The timer core is a ladder queue (see ladder.go): O(1) amortized
// schedule and dequeue for the clustered timestamps a packet simulation
// produces, with execution order exactly (time, scheduling order) — the
// same total order as a binary heap, so fixed-seed runs are bit-for-bit
// reproducible across scheduler implementations. Steady-state scheduling
// is allocation-free: callbacks bound once (method values, per-object
// closures) are stored in recycled slots, and queue entries live in the
// queue's recycled chain nodes and its one epoch buffer.
type Engine struct {
	now Time
	seq uint64
	q   ladderQueue

	slots []slot   // event arena; index = EventID.idx-1
	free  []uint32 // recycled slot indexes

	stopped    bool
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
// events. It is O(1) — the live count is maintained incrementally — so
// samplers may call it per sample point.
func (e *Engine) Pending() int { return e.live }

// EngineStats is a snapshot of the engine's lifetime counters, the
// simulation half of a run's observability record.
type EngineStats struct {
	Steps     uint64 `json:"events_executed"`
	Scheduled uint64 `json:"events_scheduled"`
	Cancelled uint64 `json:"events_cancelled"`
	Pending   int    `json:"events_pending"`
	// PeakPending is the high-water mark of simultaneously scheduled
	// events (the value the old engine reported as its peak heap size).
	PeakPending int `json:"peak_events_pending"`
	// EventAllocs counts fresh event-slot allocations: arena growth, as
	// opposed to free-list reuse. In steady state it plateaus at the peak
	// concurrent event count — a rising value on a stable workload means
	// the scheduling hot path is allocating.
	EventAllocs uint64 `json:"event_slot_allocs"`
}

// Stats snapshots the engine counters. Reading them never perturbs the
// simulation.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Steps:       e.steps,
		Scheduled:   e.seq,
		Cancelled:   e.cancelled,
		Pending:     e.live,
		PeakPending: e.peakLive,
		EventAllocs: e.slotAllocs,
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality. The hot path is allocation-free when
// fn is pre-bound (a method value or reused closure): the slot comes from
// the free list and the queue entry's chain node from the queue's.
func (e *Engine) At(t Time, fn func()) EventID {
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
	s.fn = fn
	e.q.push(entry{at: t, seq: e.seq, idx: idx, gen: s.gen})
	e.seq++
	e.live++
	if e.live > e.peakLive {
		e.peakLive = e.live
	}
	return EventID{idx: idx + 1, gen: s.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) EventID {
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from running. The slot (and its
// callback reference) is released immediately; the 24-byte queue entry is
// discarded lazily when it surfaces at the queue front. Cancelling an
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
	if s.gen != id.gen || s.fn == nil {
		return
	}
	s.fn = nil
	s.gen++
	e.free = append(e.free, idx)
	e.live--
	e.cancelled++
}

// peekLive returns the next runnable entry, discarding cancelled corpses
// as they surface. It reports false when no live events remain.
func (e *Engine) peekLive() (entry, bool) {
	for {
		en, ok := e.q.peek()
		if !ok {
			return entry{}, false
		}
		if e.slots[en.idx].gen == en.gen {
			return en, true
		}
		e.q.drop() // cancelled corpse
	}
}

// exec consumes an already-peeked entry and runs its callback.
func (e *Engine) exec(en entry) {
	e.q.drop()
	e.now = en.at
	e.live--
	e.steps++
	s := &e.slots[en.idx]
	fn := s.fn
	s.fn = nil
	s.gen++
	e.free = append(e.free, en.idx)
	fn()
}

// Step executes the next event. It reports whether an event was executed;
// false means the queue is empty.
//
// The body fuses peekLive and exec: the slot is addressed once for both
// the liveness check and the callback fetch. At tens of millions of events
// per run the saved call layer and duplicate slot load are measurable.
func (e *Engine) Step() bool {
	q := &e.q
	for {
		// Manually inlined q.peek()+q.drop(): the per-event call overhead
		// is visible at this frequency, and the compiler won't inline peek
		// past its refill loop.
		for q.curHead >= len(q.cur) {
			if !q.refill() {
				return false
			}
		}
		en := q.cur[q.curHead]
		s := &e.slots[en.idx]
		if s.gen != en.gen {
			q.curHead++ // cancelled corpse
			continue
		}
		q.curHead++
		e.now = en.at
		e.live--
		e.steps++
		fn := s.fn
		s.fn = nil
		s.gen++
		e.free = append(e.free, en.idx)
		fn()
		return true
	}
}

// StepBefore executes the next event if its time is strictly below end.
// It reports whether an event was executed; false means the queue is empty
// or the next live event is at or past end (the clock is left untouched in
// both cases). This is the epoch primitive of the parallel runner: a shard
// repeatedly calls StepBefore(horizon) and then parks at the barrier. The
// body mirrors the fused Step for the same hot-path reasons.
func (e *Engine) StepBefore(end Time) bool {
	q := &e.q
	for {
		for q.curHead >= len(q.cur) {
			if !q.refill() {
				return false
			}
		}
		en := q.cur[q.curHead]
		s := &e.slots[en.idx]
		if s.gen != en.gen {
			q.curHead++ // cancelled corpse
			continue
		}
		if en.at >= end {
			return false
		}
		q.curHead++
		e.now = en.at
		e.live--
		e.steps++
		fn := s.fn
		s.fn = nil
		s.gen++
		e.free = append(e.free, en.idx)
		fn()
		return true
	}
}

// NextEventTime returns the time of the next live event, or false when the
// queue is empty. It does not advance the clock (cancelled corpses at the
// queue front are discarded as a side effect).
func (e *Engine) NextEventTime() (Time, bool) {
	en, ok := e.peekLive()
	return en.at, ok
}

// Stop makes Run and RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled exactly at t are executed.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		en, ok := e.peekLive()
		if !ok || en.at > t {
			break
		}
		e.exec(en)
	}
	if e.now < t {
		e.now = t
	}
}
