package sim

import (
	"math/rand"
	"testing"
)

// Differential fuzz test: the ladder-queue engine is exercised against a
// naive reference model with the exact same semantics — total order by
// (time, scheduling sequence), lazy-cancel-is-no-op-after-execution —
// through a byte-encoded stream of schedule / cancel / Step / StepBefore /
// RunUntil operations, including events that schedule children from inside
// their callbacks. Execution order, the clock, and every Stats counter
// must match, and the clock must never run backwards.

// refModel is the reference scheduler: an unsorted slice scanned for the
// (at, seq) minimum on every execution. Obviously correct, O(n) per event.
type refModel struct {
	now                            Time
	seq                            uint64
	evs                            []refEv
	scheduled, executed, cancelled uint64
	order                          []int
}

type refEv struct {
	at  Time
	seq uint64
	id  int
}

func (m *refModel) schedule(at Time, id int) {
	m.evs = append(m.evs, refEv{at: at, seq: m.seq, id: id})
	m.seq++
	m.scheduled++
}

func (m *refModel) cancel(id int) {
	for i, ev := range m.evs {
		if ev.id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			m.cancelled++
			return
		}
	}
	// Already executed, already cancelled, or never scheduled: no-op,
	// matching Engine.Cancel on a stale handle.
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
	if d, child, ok := spawnChild(ev.id); ok {
		m.schedule(satAdd(m.now, d), child)
	}
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

// spawnChild decides — purely from the parent id — whether an executing
// event schedules a child and how far ahead, so the engine callbacks and
// the model apply identical in-event scheduling. About a third of events
// spawn, chains end at depth four.
func spawnChild(parent int) (Time, int, bool) {
	if parent >= 4*childIDStride {
		return 0, 0, false
	}
	h := uint32(parent)*2654435761 + 12345
	if h%3 != 0 {
		return 0, 0, false
	}
	return Time(h%500 + 1), parent + childIDStride, true
}

// Operations of the fuzz stream. Each is three bytes: the opcode (mod
// numOps) and a little-endian uint16 operand v.
const (
	opNear       = iota // schedule at now + v%10000
	opFar               // schedule at now + v<<(v%47): up to 2^62 ps ahead
	opNever             // schedule at maxTime, the "never" sentinel
	opFlood             // schedule sortMax+1+v%64 events at the one time now + v>>6
	opCancel            // cancel event v%len(all): live, executed or already cancelled
	opStep              // Step
	opRunUntil          // RunUntil(now + v%5000)
	opStepBefore        // StepBefore(now + v%5000)
	numOps
)

// The reference model is quadratic, so one input is bounded: operations
// past maxFuzzOps and direct schedules past maxFuzzEvents are ignored.
const (
	maxFuzzOps    = 1 << 12
	maxFuzzEvents = 1 << 11
)

// checkOrder replays an op stream on the engine and the reference model.
func checkOrder(t *testing.T, data []byte) {
	e := NewEngine()
	m := &refModel{}

	var engOrder []int
	var handles []EventID // indexed by id; only directly scheduled events
	last := Time(0)

	var engSchedule func(at Time, id int) EventID
	engSchedule = func(at Time, id int) EventID {
		return e.At(at, func() {
			if e.Now() < last {
				t.Fatalf("clock ran backwards: event %d at %v after %v", id, e.Now(), last)
			}
			last = e.Now()
			engOrder = append(engOrder, id)
			if d, child, ok := spawnChild(id); ok {
				engSchedule(satAdd(e.Now(), d), child)
			}
		})
	}
	schedule := func(at Time) {
		if len(handles) >= maxFuzzEvents {
			return
		}
		id := len(handles)
		handles = append(handles, engSchedule(at, id))
		m.schedule(at, id)
	}

	if len(data) > 3*maxFuzzOps {
		data = data[:3*maxFuzzOps]
	}
	for op := 0; len(data) >= 3; op, data = op+1, data[3:] {
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
			for i := sortMax + 1 + v%64; i > 0; i-- {
				schedule(at)
			}
		case opCancel:
			if len(handles) > 0 {
				id := v % len(handles)
				e.Cancel(handles[id])
				m.cancel(id)
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
		}
		if e.Now() != m.now {
			t.Fatalf("op %d: clock %v, model %v", op, e.Now(), m.now)
		}
	}
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
	if st.Scheduled != m.scheduled || st.Steps != m.executed || st.Cancelled != m.cancelled {
		t.Fatalf("counters diverge: engine {sched %d exec %d cancel %d}, model {%d %d %d}",
			st.Scheduled, st.Steps, st.Cancelled, m.scheduled, m.executed, m.cancelled)
	}
	if st.Pending != len(m.evs) || st.Pending != 0 {
		t.Fatalf("pending %d, model %d, want both 0 after Run", st.Pending, len(m.evs))
	}
}

// legacyTrial encodes one trial of the table test this fuzz target
// replaced: 50 near schedules, then 3000 operations drawn 4:2:2:2 from
// near schedule / cancel / Step / RunUntil.
func legacyTrial(seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	var data []byte
	emit := func(op, v int) { data = append(data, byte(op), byte(v), byte(v>>8)) }
	for i := 0; i < 50; i++ {
		emit(opNear, r.Intn(10_000))
	}
	for i := 0; i < 3000; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			emit(opNear, r.Intn(10_000))
		case 4, 5:
			emit(opCancel, r.Intn(1<<16))
		case 6, 7:
			emit(opStep, 0)
		case 8, 9:
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
	// enough near events to build rungs: far and never-firing timers,
	// same-timestamp floods (the last one big enough that two later pushes
	// under curEnd split the epoch), StepBefore.
	base := legacyTrial(7)[:3*400]
	for _, ops := range [][]byte{
		{opNever, 0, 0, opFar, 0x34, 0x12, opFar, 0xff, 0xff},
		{opFlood, 0x7f, 0x02, opNever, 0, 0, opFlood, 0x01, 0x00},
		{opStepBefore, 0x10, 0x00, opStepBefore, 0xff, 0x0f, opFlood, 0x40, 0x00, opStepBefore, 0x88, 0x13},
		{opFar, 0x34, 0x12, opFlood, 0x3f, 0x19, opFlood, 0x3f, 0x19, opFlood, 0x3f, 0x19, opStep, 0, 0, opNear, 5, 0, opNear, 3, 0},
	} {
		in := append(append([]byte{}, ops...), base...)
		f.Add(append(in, ops...))
	}
	f.Fuzz(checkOrder)
}

// TestEngineFarFutureKeepsOrder: one event at the largest representable
// time among enough pending entries to build an overflow rung used to wrap
// the rung's end negative, after which every push fell through to the
// overflow list and a short self-rescheduling chain ran ahead of earlier
// events — the clock went backwards.
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
	never := e.At(maxTime, func() { t.Fatal("the never event ran") })
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
	e.Cancel(never)
	e.Run()
	if e.Now() != 300_000 {
		t.Fatalf("clock = %v after draining a cancelled never event, want 300us", e.Now())
	}
}
