package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConstants(t *testing.T) {
	if Nanosecond != 1000 || Microsecond != 1e6 || Millisecond != 1e9 || Second != 1e12 {
		t.Fatalf("time constants wrong: ns=%d us=%d ms=%d s=%d",
			Nanosecond, Microsecond, Millisecond, Second)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{80 * Nanosecond, "80ns"},
		{12500 * Nanosecond, "12.5us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-80 * Nanosecond, "-80ns"},
		{math.MinInt64, "-9.223e+06s"}, // has no negation; it used to recurse until the stack ran out
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTransmitTimeExact(t *testing.T) {
	// 1000 B at 100 Gb/s is exactly 80 ns; at 400 Gb/s exactly 20 ns.
	if got := TransmitTime(1000, 100e9); got != 80*Nanosecond {
		t.Errorf("TransmitTime(1000, 100G) = %v, want 80ns", got)
	}
	if got := TransmitTime(1000, 400e9); got != 20*Nanosecond {
		t.Errorf("TransmitTime(1000, 400G) = %v, want 20ns", got)
	}
	if got := TransmitTime(64, 100e9); got != Time(5120) {
		t.Errorf("TransmitTime(64, 100G) = %v ps, want 5120ps", int64(got))
	}
}

func TestTransmitTimePanicsOnZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bandwidth")
		}
	}()
	TransmitTime(1000, 0)
}

// A rate that yields no representable delay must panic, naming size and
// rate: Time(NaN) and Time(anything >= 2^63 ps) are math.MinInt64 on amd64,
// and a flow whose pacing gap is that sends unpaced.
func TestTransmitTimeRejectsUnrepresentableDelays(t *testing.T) {
	panics := func(size int, bps float64) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		TransmitTime(size, bps)
		return ""
	}
	if msg := panics(1500, math.NaN()); !strings.Contains(msg, "1500 bytes") || !strings.Contains(msg, "NaN") {
		t.Errorf("TransmitTime(1500, NaN) panicked with %q, want size and rate named", msg)
	}
	if msg := panics(1500, 1e-3); !strings.Contains(msg, "1500 bytes") || !strings.Contains(msg, "0.001") {
		t.Errorf("TransmitTime(1500, 1e-3) panicked with %q, want size and rate named", msg)
	}
	if msg := panics(1500, -1); msg == "" {
		t.Error("TransmitTime(1500, -1) did not panic")
	}
	if got := TransmitTime(1500, math.Inf(1)); got != 0 {
		t.Errorf("TransmitTime(1500, +Inf) = %v, want 0", got)
	}
	// Walk the rates upward across the boundary 1500*8e12/2^63 b/s: every
	// one below the first representable delay panics, and that delay is the
	// top of the range, within a few float64 steps of 2^63 ps, not a wrapped one.
	rate := 1500 * 8e12 / (1 << 63) * (1 - 1e-12)
	for steps := 0; panics(1500, rate) != ""; steps++ {
		if steps > 1<<20 {
			t.Fatal("no representable delay within 2^20 ulps of the boundary")
		}
		rate = math.Nextafter(rate, math.Inf(1))
	}
	if got := TransmitTime(1500, rate); got <= 0 || got < math.MaxInt64-1<<13 {
		t.Errorf("first representable delay, at %g b/s, is %d ps, want just under 2^63", rate, int64(got))
	}
}

func TestBytesOver(t *testing.T) {
	// 100 Gb/s for 80 ns moves exactly 1000 bytes.
	if got := BytesOver(100e9, 80*Nanosecond); got != 1000 {
		t.Errorf("BytesOver(100G, 80ns) = %v, want 1000", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	// Events at the same time run in scheduling order.
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

// A reserved event runs where it would have run had it been scheduled at
// reservation: among the events of its time it takes the reservation's
// place, whatever was scheduled meanwhile and in whichever order the
// reservations are scheduled — from inside an event too. It counts as
// scheduled from the reservation and as pending from its ScheduleReserved,
// and scheduling it in the past panics, as Schedule does.
func TestReserveKeepsItsPlace(t *testing.T) {
	e := NewEngine()
	var got []int
	note := func(i int) Func { return func() { got = append(got, i) } }
	e.At(10, note(0))
	r1 := e.Reserve()
	e.Lane(10).After(note(2))
	r3 := e.Reserve()
	e.At(10, note(4))
	r5 := e.Reserve()
	if st := e.Stats(); st.Scheduled != 6 || st.Pending != 3 || st.PeakPending != 3 {
		t.Fatalf("after reserving: %+v, want 6 scheduled, 3 pending and peak", st)
	}
	e.ScheduleReserved(10, r3, note(3))
	e.At(5, func() { e.ScheduleReserved(10, r5, note(5)) })
	e.ScheduleReserved(10, r1, note(1))
	if st := e.Stats(); st.Scheduled != 7 || st.Pending != 6 || st.PeakPending != 6 {
		t.Fatalf("after scheduling: %+v, want 7 scheduled, 6 pending and peak", st)
	}
	e.Run()
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}

	r := e.Reserve()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleReserved before now did not panic")
		}
	}()
	e.ScheduleReserved(9, r, note(7))
}

func TestEngineSchedulingInsideEvent(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
		e.At(12, func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []Time{10, 12, 15}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(10)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(10) ran %v, want [5 10]", ran)
	}
	if e.Now() != 10 {
		t.Fatalf("clock after RunUntil = %v, want 10", e.Now())
	}
	e.RunUntil(12) // no events in (10, 12]; clock still advances
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(ran) != 4 || e.Now() != 100 {
		t.Fatalf("final ran=%v now=%v", ran, e.Now())
	}
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("pending after a step = %d, want 1", e.Pending())
	}
}

// An Every chain ticks at start and every period up to and including until,
// holds one pending event while it re-arms, and drops out after its last
// tick; a chain with no end re-arms for as long as the engine runs.
func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(10, 5, 30, func() { ticks = append(ticks, e.Now()) })
	forever := 0
	e.Every(0, 7, maxTime, func() { forever++ })
	if e.Pending() != 2 {
		t.Fatalf("two live chains: pending %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if want := []Time{10, 15, 20, 25, 30}; !slices.Equal(ticks, want) {
		t.Fatalf("finite chain ticked at %v, want %v", ticks, want)
	}
	if e.Pending() != 1 || forever != 100/7+1 {
		t.Fatalf("after the finite chain ended: pending %d, %d endless ticks; want 1, %d",
			e.Pending(), forever, 100/7+1)
	}

	// The same alone: nothing is pending once the chain has ended.
	e = NewEngine()
	e.Every(0, 1, 3, func() {})
	e.Run()
	if e.Pending() != 0 || e.Steps() != 4 {
		t.Fatalf("pending %d after %d ticks, want 0 after 4", e.Pending(), e.Steps())
	}
}

func TestEngineEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every with a zero period did not panic")
		}
	}()
	NewEngine().Every(0, 0, 10, func() {})
}

func TestEngineEventRecycling(t *testing.T) {
	// Heavy scheduling, with events that nothing waits on, keeps the order.
	e := NewEngine()
	r := rand.New(rand.NewSource(1))
	var last Time = -1
	n := 0
	var schedule func()
	schedule = func() {
		if n >= 10000 {
			return
		}
		n++
		if e.Now() < last {
			t.Fatal("time went backwards")
		}
		last = e.Now()
		e.After(Time(r.Intn(100)+1), schedule)
		if r.Intn(4) == 0 {
			e.After(Time(r.Intn(50)+1), func() {})
		}
	}
	e.At(0, schedule)
	e.Run()
	if n != 10000 {
		t.Fatalf("ran %d scheduled chain events, want 10000", n)
	}
}

// Property: executing any set of events yields nondecreasing time, and every
// event runs exactly once.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		seen := 0
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				seen++
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && seen == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The heap's backing array must not grow with the number of events that
// passed through it. One far timer stays pending while a near timer
// reschedules itself 200 000 times — the state delay lanes make common,
// since the events left on the heap are the short ones.
func TestHeapStaysBounded(t *testing.T) {
	e := NewEngine()
	e.At(Second, func() {})
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 200_000 {
			e.After(Nanosecond, tick)
		}
	}
	e.At(0, tick)
	for e.Pending() > 1 {
		e.Step()
	}
	if n != 200_000 {
		t.Fatalf("ticked %d times", n)
	}
	if peak := e.Stats().PeakPending; cap(e.q.h) > 8*peak+64 {
		t.Fatalf("heap holds %d entries (len %d) after a run that never had more than %d pending",
			cap(e.q.h), len(e.q.h), peak)
	}
}
