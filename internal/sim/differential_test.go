package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Differential fuzz test: the engine is exercised against a
// naive reference model with the exact same semantics — total order by
// (time, scheduling sequence), each event run exactly once — through a
// byte-encoded stream of schedule / Step / StepBefore / RunUntil
// operations, including events that schedule children from inside their
// callbacks. Every schedule may go through a delay lane instead of the
// heap; to the model a lane event is just an event at now + d, a reserved
// event (Engine.Reserve) one that takes
// its sequence number when reserved and joins the queue some operations
// later, when ScheduleReserved schedules it, and an Every chain a run of
// events each scheduling the next while that falls by the chain's end. Even
// ids are scheduled as an object that is its own Handler, odd ids as a
// func(): both kinds meet on the heap, on every lane and on the fall-back
// lanes. Execution order, the clock, NextEventTime and every Stats counter
// must match, and the clock must never run backwards.

// refModel is the reference scheduler: an unsorted slice scanned for the
// (at, seq) minimum on every execution. Obviously correct, O(n) per event.
type refModel struct {
	now                 Time
	seq                 uint64
	evs                 []refEv
	scheduled, executed uint64
	order               []int
	chains              map[int]refChain // by the id every tick of the chain carries
}

// refChain is an Every chain: its ticks are period apart and end at until.
type refChain struct{ period, until Time }

type refEv struct {
	at  Time
	seq uint64
	id  int
}

func (m *refModel) schedule(at Time, id int) { m.scheduleReserved(at, m.reserve(), id) }

// reserve takes the next sequence number; it counts as scheduled at once.
func (m *refModel) reserve() uint64 {
	m.seq++
	m.scheduled++
	return m.seq - 1
}

// scheduleReserved queues event id at at under the reserved seq.
func (m *refModel) scheduleReserved(at Time, seq uint64, id int) {
	m.evs = append(m.evs, refEv{at: at, seq: seq, id: id})
}

// every starts a chain whose ticks all carry id: the first at start, each
// next one period after the last while that is representable and no later
// than until.
func (m *refModel) every(start, period, until Time, id int) {
	if m.chains == nil {
		m.chains = map[int]refChain{}
	}
	m.chains[id] = refChain{period, until}
	m.schedule(start, id)
}

func (m *refModel) minIdx() int {
	best := -1
	for i, ev := range m.evs {
		if best < 0 || ev.at < m.evs[best].at ||
			(ev.at == m.evs[best].at && ev.seq < m.evs[best].seq) {
			best = i
		}
	}
	return best
}

// run executes event i, mirroring the engine-side callbacks' child
// scheduling.
func (m *refModel) run(i int) {
	ev := m.evs[i]
	m.evs = append(m.evs[:i], m.evs[i+1:]...)
	m.now = ev.at
	m.executed++
	m.order = append(m.order, ev.id)
	if c, ok := m.chains[ev.id]; ok {
		if next := m.now + c.period; next > m.now && next <= c.until {
			m.schedule(next, ev.id)
		}
		return
	}
	if d, child, _, ok := spawnChild(ev.id); ok {
		m.schedule(satAdd(m.now, d), child)
	}
}

// nextTime is the model's NextEventTime.
func (m *refModel) nextTime() (Time, bool) {
	i := m.minIdx()
	if i < 0 {
		return 0, false
	}
	return m.evs[i].at, true
}

// exec runs the minimum event and reports whether there was one.
func (m *refModel) exec() bool {
	i := m.minIdx()
	if i < 0 {
		return false
	}
	m.run(i)
	return true
}

// execBefore runs the minimum event if its time is below end.
func (m *refModel) execBefore(end Time) bool {
	i := m.minIdx()
	if i < 0 || m.evs[i].at >= end {
		return false
	}
	m.run(i)
	return true
}

func (m *refModel) runUntil(t Time) {
	for {
		i := m.minIdx()
		if i < 0 || m.evs[i].at > t {
			break
		}
		m.run(i)
	}
	if m.now < t {
		m.now = t
	}
}

// childIDStride separates a child's id from its parent's; ids of directly
// scheduled events stay below it.
const childIDStride = 1_000_000_000

// laneDelays are the delays the op stream schedules lane events at: more
// of them than maxLanes (checkOrder fails if that stops being so), so the
// later ones exercise the fall-back to After, with the zero delay first (a
// lane event at the current time), 1000 and 2500 chosen to tie with opNear
// and opReserve events, and 1000, 84, 7 and 5 close enough that RunUntil can
// line their lanes' heads up on one time. The first maxLanes-1 are
// registered before the first op; the last slot goes to the first lane of
// one of the other delays.
var laneDelays = [...]Time{0, 1000, 7, 2500, 40_000, 5, 1_000_000, 84, 12_345, 3, 500}

// spawnChild decides — purely from the parent id — whether an executing
// event schedules a child and how far ahead, so the engine callbacks and
// the model apply identical in-event scheduling. About a third of events
// spawn, chains end at depth four. A quarter of the children go on the
// delay lane whose index is returned (-1: through At), the way a port
// schedules an arrival from inside its serialization event.
func spawnChild(parent int) (d Time, child, lane int, ok bool) {
	if parent/childIDStride >= 4 {
		return 0, 0, 0, false
	}
	h := uint32(parent)*2654435761 + 12345
	if h%3 != 0 {
		return 0, 0, 0, false
	}
	d, lane = Time(h%500+1), -1
	if h>>4%4 == 0 {
		lane = int(h >> 8 % uint32(len(laneDelays)))
		d = laneDelays[lane]
	}
	return d, parent + childIDStride, lane, true
}

// Operations of the fuzz stream. Each is three bytes: the opcode (mod
// numOps) and a little-endian uint16 operand v.
const (
	opNear       = iota // schedule at now + v%10000
	opFar               // schedule at now + v<<(v%47): up to 2^62 ps ahead
	opNever             // schedule at maxTime, the "never" sentinel
	opFlood             // schedule floodMin+v%64 events at the one time now + v>>6
	opStep              // Step
	opRunUntil          // RunUntil(now + v%5000)
	opStepBefore        // StepBefore(now + v%5000)
	opLane              // schedule 1 + v>>8%4 events on lane v%len(laneDelays)
	opLaneFlood         // schedule laneRingMin/2 + v>>8 events on lane v%len(laneDelays): the ring grows
	opReserve           // Reserve now; ScheduleReserved 1 + v%8 ops later, at now + v>>3 or the clock then if that is later
	opEvery             // Every from now + v%4096, period 250 * (1 + v>>12%4), 1 + v>>14 ticks
	numOps
)

// reserveOp encodes opReserve's operand: the event is scheduled k ops
// later, d after the clock at reservation.
func reserveOp(d, k int) []byte {
	v := d<<3 | (k - 1)
	return []byte{opReserve, byte(v), byte(v >> 8)}
}

// floodMin is the least opFlood schedules: equal times on four heap levels,
// ordered by seq alone.
const floodMin = 65

// The reference model is quadratic, so one input is bounded: operations
// past maxFuzzOps and direct schedules past maxFuzzEvents are ignored.
const (
	maxFuzzOps    = 1 << 12
	maxFuzzEvents = 1 << 11
)

// objEvent is an event scheduled by address, as the network schedules
// packets and ports.
type objEvent struct{ run func() }

func (o *objEvent) Fire() { o.run() }

// checkOrder replays an op stream on the engine and the reference model.
func checkOrder(t *testing.T, data []byte) {
	e := NewEngine()
	m := &refModel{}

	var engOrder []int
	ids := 0 // directly scheduled events, reservations and chains so far
	last := Time(0)

	var laned uint64 // events scheduled on a lane that has a ring
	var lanes [len(laneDelays)]*Lane
	if len(lanes) <= maxLanes {
		t.Fatalf("%d lane delays, %d lane slots: the fall-back to At is no longer fuzzed", len(lanes), maxLanes)
	}
	laneFor := func(i int) *Lane {
		if lanes[i] == nil {
			lanes[i] = e.Lane(laneDelays[i])
		}
		return lanes[i]
	}
	for i := range maxLanes - 1 {
		laneFor(i)
	}
	// Reservations not yet scheduled: the op that schedules each, the time
	// it was reserved for, its event id and both sides' sequence numbers.
	type reservation struct {
		due  int
		at   Time
		id   int
		r    Reservation
		mseq uint64
	}
	var reserved []reservation
	// ran records that event id, scheduled for at, is running.
	ran := func(id int, at Time) {
		if e.Now() < last {
			t.Fatalf("clock ran backwards: event %d at %v after %v", id, e.Now(), last)
		}
		if e.Now() != at {
			t.Fatalf("event %d scheduled for %v ran at %v", id, at, e.Now())
		}
		last = e.Now()
		engOrder = append(engOrder, id)
	}
	// handler is event id's Handler: it records the run and schedules the
	// event's child, if it has one.
	var engSchedule func(at Time, id, lane int)
	handler := func(at Time, id int) Handler {
		fn := func() {
			ran(id, at)
			if d, child, lane, ok := spawnChild(id); ok {
				engSchedule(satAdd(e.Now(), d), child, lane)
			}
		}
		if id%2 == 0 {
			return &objEvent{run: fn}
		}
		return Func(fn)
	}
	// engSchedule schedules event id on the heap (lane -1) or on a lane.
	engSchedule = func(at Time, id, lane int) {
		h := handler(at, id)
		if lane < 0 || e.Now()+laneDelays[lane] < e.Now() {
			// No lane, or the lane's delay overflows the clock (it has
			// reached a never event): the lane would panic, as After
			// does, so the event goes to the saturated time on the heap.
			if f, ok := h.(Func); ok {
				e.At(at, f)
			} else {
				e.Schedule(at, h)
			}
			return
		}
		ln := laneFor(lane)
		ln.After(h)
		if ln.ring != nil {
			laned++ // it will run from its ring
		}
	}
	scheduleOn := func(at Time, lane int) {
		if ids >= maxFuzzEvents {
			return
		}
		id := ids
		ids++
		engSchedule(at, id, lane)
		m.schedule(at, id)
	}
	schedule := func(at Time) { scheduleOn(at, -1) }
	scheduleLane := func(lane, n int) {
		for ; n > 0; n-- {
			scheduleOn(satAdd(e.Now(), laneDelays[lane]), lane)
		}
	}

	// scheduleReserved schedules the reservations due by op, in the order
	// they were made, each at its time or at the clock if that has passed it.
	scheduleReserved := func(op int) {
		kept := reserved[:0]
		for _, rv := range reserved {
			if rv.due > op {
				kept = append(kept, rv)
				continue
			}
			at := max(rv.at, e.Now())
			e.ScheduleReserved(at, rv.r, handler(at, rv.id))
			m.scheduleReserved(at, rv.mseq, rv.id)
		}
		reserved = kept
	}

	if len(data) > 3*maxFuzzOps {
		data = data[:3*maxFuzzOps]
	}
	for op := 0; len(data) >= 3; op, data = op+1, data[3:] {
		scheduleReserved(op)
		v := int(data[1]) | int(data[2])<<8
		switch data[0] % numOps {
		case opNear:
			schedule(satAdd(e.Now(), Time(v%10_000)))
		case opFar:
			schedule(satAdd(e.Now(), Time(v)<<(v%47)))
		case opNever:
			schedule(maxTime)
		case opFlood:
			at := satAdd(e.Now(), Time(v>>6))
			for i := floodMin + v%64; i > 0; i-- {
				schedule(at)
			}
		case opStep:
			if e.Step() != m.exec() {
				t.Fatalf("op %d: Step disagrees with the model on whether an event ran", op)
			}
		case opRunUntil:
			h := satAdd(e.Now(), Time(v%5_000))
			e.RunUntil(h)
			m.runUntil(h)
		case opStepBefore:
			h := satAdd(e.Now(), Time(v%5_000))
			if e.StepBefore(h) != m.execBefore(h) {
				t.Fatalf("op %d: StepBefore(%v) disagrees with the model on whether an event ran", op, h)
			}
		case opLane:
			scheduleLane(v%len(laneDelays), 1+v>>8%4)
		case opLaneFlood:
			scheduleLane(v%len(laneDelays), laneRingMin/2+v>>8)
		case opReserve:
			if ids >= maxFuzzEvents {
				break
			}
			id := ids
			ids++
			reserved = append(reserved, reservation{due: op + 1 + v%8, at: satAdd(e.Now(), Time(v>>3)),
				id: id, r: e.Reserve(), mseq: m.reserve()})
		case opEvery:
			if ids >= maxFuzzEvents {
				break
			}
			start, period := satAdd(e.Now(), Time(v%4096)), Time(250*(1+v>>12%4))
			until := satAdd(start, Time(v>>14)*period)
			id, at := ids, start
			ids++
			e.Every(start, period, until, func() {
				ran(id, at)
				at += period
			})
			m.every(start, period, until, id)
		}
		if e.Now() != m.now {
			t.Fatalf("op %d: clock %v, model %v", op, e.Now(), m.now)
		}
		at, ok := e.NextEventTime()
		if mat, mok := m.nextTime(); ok != mok || at != mat {
			t.Fatalf("op %d: NextEventTime (%v, %v), model (%v, %v)", op, at, ok, mat, mok)
		}
	}
	scheduleReserved(math.MaxInt)
	e.Run()
	for m.exec() {
	}

	if len(engOrder) != len(m.order) {
		t.Fatalf("engine ran %d events, model %d", len(engOrder), len(m.order))
	}
	for i := range engOrder {
		if engOrder[i] != m.order[i] {
			t.Fatalf("execution order diverges at %d: engine id %d, model id %d",
				i, engOrder[i], m.order[i])
		}
	}
	st := e.Stats()
	if st.Scheduled != m.scheduled || st.Steps != m.executed {
		t.Fatalf("counters diverge: engine {sched %d exec %d}, model {%d %d}",
			st.Scheduled, st.Steps, m.scheduled, m.executed)
	}
	if st.Pending != len(m.evs) || st.Pending != 0 {
		t.Fatalf("pending %d, model %d, want both 0 after Run", st.Pending, len(m.evs))
	}
	if st.Laned != laned {
		t.Fatalf("Stats reports %d events laned, %d were scheduled on lanes with a ring", st.Laned, laned)
	}
}

// legacyTrial encodes one trial in the shape of the table test this fuzz
// target replaced: 50 near schedules, then 3000 operations drawn 4:2:2
// from near schedule / Step / RunUntil.
func legacyTrial(seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	var data []byte
	emit := func(op, v int) { data = append(data, byte(op), byte(v), byte(v>>8)) }
	for i := 0; i < 50; i++ {
		emit(opNear, r.Intn(10_000))
	}
	for i := 0; i < 3000; i++ {
		switch r.Intn(8) {
		case 0, 1, 2, 3:
			emit(opNear, r.Intn(10_000))
		case 4, 5:
			emit(opStep, 0)
		case 6, 7:
			emit(opRunUntil, r.Intn(5_000))
		}
	}
	return data
}

func FuzzEngineOrder(f *testing.F) {
	for trial := int64(0); trial < 20; trial++ {
		f.Add(legacyTrial(1000 + trial))
	}
	// One input per operation the old table lacked, each before and after
	// enough near events that the heap is several levels deep: far and
	// never-firing timers, same-timestamp floods, StepBefore.
	base := legacyTrial(7)[:3*400]
	for _, ops := range [][]byte{
		{opNever, 0, 0, opFar, 0x34, 0x12, opFar, 0xff, 0xff},
		{opFlood, 0x7f, 0x02, opNever, 0, 0, opFlood, 0x01, 0x00},
		{opStepBefore, 0x10, 0x00, opStepBefore, 0xff, 0x0f, opFlood, 0x40, 0x00, opStepBefore, 0x88, 0x13},
		{opFar, 0x34, 0x12, opFlood, 0x3f, 0x19, opFlood, 0x3f, 0x19, opFlood, 0x3f, 0x19, opStep, 0, 0, opNear, 5, 0, opNear, 3, 0},
		// Lanes. Every lane including the fall-backs, with ties: lane 0 is
		// the current time, as opNear 0 is; lane 1 is opNear 1000 (0x3e8).
		// An operand's high byte adds events, and picks some other lane: the
		// first op's is lane 9, which takes the last slot, so 7, 8 and 10
		// fall back.
		{opLane, 0, 3, opNear, 0, 0, opLane, 0, 0, opNear, 0xe8, 0x03, opLane, 1, 1, opNear, 0xe8, 0x03,
			opLane, 2, 0, opLane, 3, 2, opLane, 4, 0, opLane, 5, 3, opLane, 6, 0, opLane, 7, 0,
			opLane, 8, 0, opLane, 9, 0, opLane, 10, 0, opStep, 0, 0, opStep, 0, 0},
		// A lane head exactly at the boundary: StepBefore(now+1000) must
		// leave it, RunUntil(now+1000) must run it; then the same for the
		// fall-back lane 9 at now+3, once a heap event at now+1 has run.
		{opLane, 1, 0, opStepBefore, 0xe8, 0x03, opRunUntil, 0xe8, 0x03,
			opNear, 1, 0, opLane, 9, 0, opStep, 0, 0, opStepBefore, 2, 0, opRunUntil, 2, 0},
		// Ring growth across a wrap: the head is moved off zero first, then
		// one lane takes more than its ring holds, twice over.
		{opLane, 2, 3, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opLaneFlood, 2, 0x40, opStep, 0, 0,
			opLaneFlood, 2, 0xff, opLaneFlood, 0, 0x80, opRunUntil, 7, 0},
		// Reservations among the base's heap and lane events: two for 1000,
		// which tie a heap event and lane 1, the first scheduled after the
		// second; one for 100, scheduled once the clock may have passed it;
		// and, when the ops repeat after the base, reservations at a clock
		// long past the first ones.
		slices.Concat(reserveOp(1000, 4), []byte{opLane, 1, 0, opNear, 0xe8, 0x03}, reserveOp(1000, 1),
			reserveOp(100, 8), []byte{opStep, 0, 0}),
	} {
		in := append(append([]byte{}, ops...), base...)
		f.Add(append(in, ops...))
	}
	// What the merge's head-time cache (Engine.laneAt, laneLive) can get
	// wrong; NextEventTime is checked after every op. These run as written,
	// from time zero.
	for _, ops := range [][]byte{
		// The last representable time is a key like any other: the clock
		// reaches it, then zero-delay lane events and heap events all at
		// math.MaxInt64 interleave by seq. No time can mean "empty lane".
		{opNever, 0, 0, opStep, 0, 0, opLane, 0, 0, opNever, 0, 0, opLane, 0, 0, opNever, 0, 0,
			opStep, 0, 0, opStep, 0, 0, opLane, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0},
		// A lane emptied and refilled between two peeks: its cached head
		// time (1000) is stale while it is empty and must be replaced, not
		// kept, by the refill at 2000 — which a heap event at 1500 and
		// then another lane's head at 1507 precede.
		{opLane, 1, 0, opStep, 0, 0, opNear, 0xf4, 0x01, opLane, 1, 0, opStep, 0, 0, opLane, 2, 0,
			opStep, 0, 0, opLane, 1, 0, opStep, 0, 0, opStep, 0, 0},
		// Equal head times on four lanes, decided by seq: lanes 1, 7, 2
		// and 5 (delays 1000, 84, 7, 5) are appended at 0, 916, 993 and
		// 995, so every head is at 1000 and seq order is not index order;
		// a heap event at 1000 and a second round on lanes 5 and 1 follow.
		{opLane, 1, 0, opRunUntil, 0x94, 0x03, opLane, 7, 0, opRunUntil, 77, 0, opLane, 2, 0,
			opRunUntil, 2, 0, opLane, 5, 0, opNear, 5, 0, opLane, 5, 0, opLane, 1, 0,
			opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0},
		// What the heap's two sifts can get wrong; these too run as written.
		// The root runs (the last leaf, 300, goes down from the root), and a
		// smaller key than anything pending is pushed and must come up past
		// all of it.
		{opNear, 100, 0, opNear, 200, 0, opNear, 0x2c, 0x01, opNear, 250, 0, opNear, 150, 0, opNear, 120, 0,
			opStep, 0, 0, opNear, 50, 0, opStep, 0, 0, opStep, 0, 0, opNear, 60, 0, opStep, 0, 0, opStep, 0, 0},
		// The heap drained to empty between two peeks, then refilled in
		// descending time, twice: every push replaces the root.
		{opNear, 10, 0, opStep, 0, 0, opNear, 5, 0, opNear, 3, 0, opNear, 1, 0, opStep, 0, 0, opStep, 0, 0,
			opStep, 0, 0, opStep, 0, 0, opNear, 2, 0, opNear, 0, 0, opStep, 0, 0, opStep, 0, 0},
		// Equal times on two heap levels, decided by seq: three later events
		// take the first level, eight at time 7 follow them in, four run (the
		// clock is then 7), and three more at 7 land among the survivors.
		{opNear, 9, 0, opNear, 9, 0, opNear, 9, 0,
			opNear, 7, 0, opNear, 7, 0, opNear, 7, 0, opNear, 7, 0, opNear, 7, 0, opNear, 7, 0, opNear, 7, 0, opNear, 7, 0,
			opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opNear, 0, 0, opNear, 0, 0, opNear, 0, 0,
			opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0},
		// What a reservation can get wrong: its place. Three reserved at 0,
		// for 100, 200 and 200, are scheduled in the reverse order, among
		// heap events at 200 and 100 made after them; the one for 100 only
		// once the event at 100 has run and the clock stands there. Then,
		// with the clock moved on, reservations at the clock and after it.
		slices.Concat(reserveOp(100, 6), reserveOp(200, 4), reserveOp(200, 2),
			[]byte{opNear, 200, 0, opNear, 100, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0,
				opRunUntil, 0xf4, 0x01}, reserveOp(0, 1), reserveOp(5, 2), []byte{opNear, 5, 0, opStep, 0, 0, opStep, 0, 0,
				opStep, 0, 0}),
		// Ties at 1000 between reservations, heap events and lane 1 (delay
		// 1000), interleaved so that only seq decides; the second
		// reservation is scheduled before the first.
		slices.Concat([]byte{opNear, 0xe8, 0x03}, reserveOp(1000, 6), []byte{opLane, 1, 0}, reserveOp(1000, 3),
			[]byte{opNear, 0xe8, 0x03, opLane, 1, 0}, reserveOp(1000, 1), []byte{opStep, 0, 0, opStep, 0, 0, opStep, 0, 0,
				opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0}),
		// A reservation for the clock it was made at, scheduled after a
		// zero-delay lane event and a heap event at that time: it still
		// runs first.
		slices.Concat(reserveOp(0, 3), []byte{opLane, 0, 0, opNear, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0}),
		// A chain's ticks tie lane 1 (delay 1000), a reserved event and a
		// heap event: the first tick at 1000 is scheduled by Every itself,
		// the second at 2000 from inside the first, before the lane event
		// and the reservation that meet it there.
		slices.Concat([]byte{opLane, 1, 0, opEvery, 0xe8, 0x73}, reserveOp(1000, 2),
			[]byte{opNear, 0xe8, 0x03, opRunUntil, 0xe8, 0x03, opLane, 1, 0}, reserveOp(1000, 1),
			[]byte{opStep, 0, 0, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0}),
	} {
		f.Add(ops)
	}
	f.Fuzz(checkOrder)
}

// TestEngineFarFutureKeepsOrder: one event at the largest representable
// time, pending among two hundred spread-out events and a short
// self-rescheduling chain, must not disturb their order — no arithmetic on
// a key may wrap — and must itself never run.
func TestEngineFarFutureKeepsOrder(t *testing.T) {
	e := NewEngine()
	last := Time(0)
	ran := 0
	observe := func() {
		if e.Now() < last {
			t.Fatalf("clock ran backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		ran++
	}
	e.At(maxTime, func() { t.Fatal("the never event ran") })
	for i := 0; i < 200; i++ {
		e.At(Time(1000*i), observe)
	}
	var tick func()
	tick = func() {
		observe()
		if e.Now() < 250_000 {
			e.After(7, tick)
		}
	}
	e.At(1, tick)
	e.RunUntil(300_000)
	if want := 200 + (250_000-1+6)/7 + 1; ran != want {
		t.Fatalf("ran %d events, want %d", ran, want)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want only the never event", e.Pending())
	}
	if e.Now() != 300_000 {
		t.Fatalf("clock = %v, want 300us", e.Now())
	}
}
