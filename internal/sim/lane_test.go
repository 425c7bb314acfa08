package sim

import (
	"math"
	"testing"
)

// A lane event and a heap event at one time run in scheduling order,
// whichever side was scheduled first, and lane events count as scheduled,
// pending and executed like any other — but never enter the heap.
func TestLaneMergesByTimeThenSeq(t *testing.T) {
	e := NewEngine()
	ln := e.Lane(10)
	var got []int
	note := func(i int) Func { return func() { got = append(got, i) } }
	e.At(10, note(0))
	ln.After(note(1)) // at 10, after event 0
	e.At(10, note(2))
	e.Lane(0).After(note(3)) // at 0: first of all
	e.Lane(10).After(note(4))
	e.At(5, note(5))
	if st := e.Stats(); st.Scheduled != 6 || st.Pending != 6 || st.PeakPending != 6 || len(e.q.h) != 3 {
		t.Fatalf("after scheduling: %+v and %d on the heap, want 6 scheduled, pending and peak, 3 on the heap", st, len(e.q.h))
	}
	if at, ok := e.NextEventTime(); !ok || at != 0 {
		t.Fatalf("NextEventTime = (%v, %v), want the zero-delay lane head at 0", at, ok)
	}
	e.Run()
	want := []int{3, 5, 0, 1, 2, 4}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if st := e.Stats(); st.Steps != 6 || st.Laned != 3 || st.Pending != 0 {
		t.Fatalf("after Run: %+v, want 6 executed, 3 of them laned", st)
	}
}

// The next event being a lane head exactly at the boundary: StepBefore's
// bound is exclusive, RunUntil's inclusive, and neither moves the clock
// past an event it leaves pending.
func TestLaneHeadAtTheBoundary(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Lane(1000).After(Func(func() { ran++ }))
	if e.StepBefore(1000) {
		t.Fatal("StepBefore(1000) ran the lane event at 1000")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v without an event", e.Now())
	}
	if at, ok := e.NextEventTime(); !ok || at != 1000 {
		t.Fatalf("NextEventTime = (%v, %v), want (1000, true)", at, ok)
	}
	e.RunUntil(999)
	if ran != 0 || e.Now() != 999 {
		t.Fatalf("RunUntil(999): ran %d, clock %v", ran, e.Now())
	}
	e.RunUntil(1000)
	if ran != 1 || e.Now() != 1000 {
		t.Fatalf("RunUntil(1000): ran %d, clock %v, want the lane event run", ran, e.Now())
	}
	if e.StepBefore(math.MinInt64) || e.StepBefore(0) {
		t.Fatal("StepBefore ran an event before time zero")
	}
	if _, ok := e.NextEventTime(); ok || e.Step() {
		t.Fatal("an event is left")
	}
}

// Past maxLanes distinct delays Lane hands out lanes that go through the
// heap: same order, nothing laned, and asking again for a registered
// delay still finds its lane.
func TestLaneCapFallsBackToTheHeap(t *testing.T) {
	e := NewEngine()
	var got []Time
	for d := Time(maxLanes + 3); d > 0; d-- { // longest delay first: run order is the reverse
		e.Lane(d).After(Func(func() { got = append(got, e.Now()) }))
	}
	if e.nLanes != maxLanes {
		t.Fatalf("%d lanes registered, cap %d", e.nLanes, maxLanes)
	}
	if a, b := e.Lane(maxLanes+3), e.Lane(maxLanes+3); a != b || a.ring == nil {
		t.Fatal("a registered delay did not resolve to its one lane")
	}
	if e.Lane(1).ring != nil {
		t.Fatal("a delay past the cap got a ring")
	}
	e.Run()
	for i, at := range got {
		if at != Time(i+1) {
			t.Fatalf("ran at %v, want 1..%d in order", got, maxLanes+3)
		}
	}
	if st := e.Stats(); st.Steps != maxLanes+3 || st.Laned != maxLanes {
		t.Fatalf("%+v, want %d executed, %d laned", st, maxLanes+3, maxLanes)
	}
}

// A lane ring that fills while its head sits mid-buffer grows without
// losing or reordering entries, and a drained ring is reused, not regrown.
func TestLaneRingGrowsAcrossAWrap(t *testing.T) {
	e := NewEngine()
	ln := e.Lane(100)
	next := 0
	fn := func(i int) Func {
		return func() {
			if i != next {
				t.Fatalf("ran event %d, want %d", i, next)
			}
			next++
		}
	}
	n := 0
	for ; n < laneRingMin-1; n++ {
		ln.After(fn(n))
	}
	for i := 0; i < laneRingMin/2; i++ {
		e.Step()
	}
	for ; n < 3*laneRingMin; n++ { // wraps, then outgrows the ring twice
		ln.After(fn(n))
	}
	if len(ln.ring) != 4*laneRingMin {
		t.Fatalf("ring length %d, want %d", len(ln.ring), 4*laneRingMin)
	}
	e.Run()
	if next != n {
		t.Fatalf("ran %d of %d", next, n)
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < laneRingMin; i++ {
			ln.After(Func(func() {}))
		}
		e.Run()
	}
	if len(ln.ring) != 4*laneRingMin {
		t.Fatalf("ring regrew to %d on a drained lane", len(ln.ring))
	}
}

// A lane fails as loudly as After: a negative delay when it is asked for, a
// time past the end of the clock when it is scheduled — whether or not the
// delay has a ring.
func TestLaneRejectsWhatAfterRejects(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	mustPanic("Lane(-1)", func() { e.Lane(-1) })
	mustPanic("After(-1)", func() { e.After(-1, func() {}) })
	e.RunUntil(2)
	mustPanic("lane After past maxTime", func() { e.Lane(maxTime - 1).After(Func(func() {})) })
	for d := Time(1); d <= maxLanes; d++ {
		e.Lane(d)
	}
	mustPanic("fall-back lane After past maxTime", func() { e.Lane(maxTime).After(Func(func() {})) })
	mustPanic("After past maxTime", func() { e.After(maxTime, func() {}) })
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after rejected schedules", e.Pending())
	}
}

// Past the cap a lane schedules the Handler it was given, not a wrapper
// built around it: an object and a pre-bound func() both go through the
// heap, and come back out, without an allocation.
func TestLaneFallBackDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	for d := Time(1); d <= maxLanes; d++ {
		e.Lane(d)
	}
	ln := e.Lane(maxLanes + 1)
	if ln.ring != nil {
		t.Fatal("a delay past the cap got a ring")
	}
	ran := 0
	fn := func() { ran++ }
	obj := &objEvent{run: fn}
	round := func() {
		ln.After(obj)
		ln.After(Func(fn))
		e.Run()
	}
	round() // the heap's array
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("%v allocations per round of two fall-back lane events, want 0", n)
	}
	if ran != 2*1002 || e.Stats().Laned != 0 {
		t.Fatalf("ran %d events, %d of them laned; want %d and 0", ran, e.Stats().Laned, 2*1002)
	}
}
