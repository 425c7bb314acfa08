package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineSteadyState is the simulator's steady-state shape: a
// fixed population of timers, each rescheduling itself on execution
// (pacing timers, port drains, propagation arrivals). With pre-bound
// callbacks the whole loop — At, queue churn, execution — must run
// allocation-free.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	const timers = 1024
	executed := 0
	// Pre-bound callbacks: one closure per timer for its whole lifetime,
	// as Flow.wake is.
	cbs := make([]func(), timers)
	for i := 0; i < timers; i++ {
		period := Time(900 + i) // coprime-ish periods keep the queue mixed
		cbs[i] = func() {
			executed++
			e.After(period, cbs[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < timers; i++ {
		e.At(Time(i), cbs[i])
	}
	for executed < b.N {
		e.Step()
	}
	b.StopTimer()
	if n := cap(e.q.h); n > 2*timers {
		b.Fatalf("steady state grew the heap: %d entries for %d timers", n, timers)
	}
}

// BenchmarkEngineScheduleMixed measures raw schedule+execute throughput
// with a monotonically advancing, randomly jittered timestamp stream: what
// a fabric with more distinct delays than lanes sends to the heap, pushes
// landing anywhere among a few thousand pending entries.
func BenchmarkEngineScheduleMixed(b *testing.B) {
	e := NewEngine()
	r := rand.New(rand.NewSource(1))
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(r.Intn(100_000)+1), fn)
		if i%64 == 63 {
			e.RunUntil(e.Now() + 1000)
		}
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkEngineHoldFarPending is a long traffic window on the paper's
// fabric: every flow start is scheduled before the run begins, so 100 000
// far-future entries sit in the heap while a few hundred near timers
// (pacing gaps, retransmission timers) reschedule themselves. Every push
// starts nine levels down and every pop sifts a far entry back there.
func BenchmarkEngineHoldFarPending(b *testing.B) {
	e := NewEngine()
	r := rand.New(rand.NewSource(1))
	const far, timers = 100_000, 256
	for i := 0; i < far; i++ {
		e.At(Second+Time(r.Int63n(int64(Second))), func() {})
	}
	executed := 0
	cbs := make([]func(), timers)
	for i := range cbs {
		period := Time(900 + i)
		cbs[i] = func() {
			executed++
			e.After(period, cbs[i])
		}
		e.At(Time(i), cbs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for executed < b.N {
		e.Step()
	}
	b.StopTimer()
	if e.Now() >= Second {
		b.Fatalf("the near timers reached the far entries at %v: the heap is no longer deep", e.Now())
	}
}

// coldHandler is a packet-sized event object: two cache lines, the first
// touched by its own Fire, which puts it back on its lane.
type coldHandler struct {
	ln    *Lane
	fired uint64
	_     [112]byte
}

func (c *coldHandler) Fire() {
	c.fired++
	c.ln.After(c)
}

// BenchmarkLaneColdHandlers is the paper-scale fabric's regime without the
// fabric: 64 Ki 128-byte handler objects — 8 MB, twice the reference box's
// L2 — cycling through two lanes in an order unrelated to their addresses,
// so every Fire's first touch has left the near caches since the object was
// last written. What it times is what the lanes' lookahead prefetch hides.
func BenchmarkLaneColdHandlers(b *testing.B) {
	e := NewEngine()
	const n = 64 << 10
	lanes := [2]*Lane{e.Lane(n), e.Lane(n + n/2)}
	objs := make([]coldHandler, n)
	for t, i := range rand.New(rand.NewSource(1)).Perm(n) {
		objs[i].ln = lanes[t&1]
		e.Schedule(Time(t), &objs[i])
	}
	for i := 0; i < 2*n; i++ { // off the heap, rings grown, every object fired once
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if st := e.Stats(); st.Pending != n || st.Steps-st.Laned != n {
		b.Fatalf("%d pending, %d events off the heap; want %d objects, each on the heap once", st.Pending, st.Steps-st.Laned, n)
	}
}
