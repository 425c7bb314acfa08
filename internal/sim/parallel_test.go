package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestMailboxOrdering checks the deterministic merge: events drained into
// a shard execute in (time, srcShard, localSeq) order regardless of the
// order the senders appended them.
func TestMailboxOrdering(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	mail := NewMailboxes(3)
	p := NewParallel(engines, mail, ParallelConfig{Window: 1})

	var got []string
	rec := func(tag string) Func {
		return func() { got = append(got, tag) }
	}
	// Shard 2 sends before shard 0, with timestamp ties across sources and
	// within one source (two sends at t=5 from shard 0 must keep their send
	// order via localSeq).
	mail.Outbox(2, 1).Send(5, rec("t5 src2 first"))
	mail.Outbox(2, 1).Send(3, rec("t3 src2"))
	mail.Outbox(0, 1).Send(5, rec("t5 src0 first"))
	mail.Outbox(0, 1).Send(5, rec("t5 src0 second"))
	mail.Outbox(0, 1).Send(7, rec("t7 src0"))

	p.drainPhase(1)
	eng := engines[1]
	for eng.Step() {
	}
	want := []string{"t3 src2", "t5 src0 first", "t5 src0 second", "t5 src2 first", "t7 src0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
}

func TestMailboxValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("one-shard mailboxes", func() { NewMailboxes(1) })
	mustPanic("self outbox", func() { NewMailboxes(2).Outbox(1, 1) })
	mustPanic("no engines", func() { NewParallel(nil, nil, ParallelConfig{}) })
	mustPanic("nil mail, 2 engines", func() {
		NewParallel([]*Engine{NewEngine(), NewEngine()}, nil, ParallelConfig{})
	})
	mustPanic("mail size mismatch", func() {
		NewParallel([]*Engine{NewEngine(), NewEngine()}, NewMailboxes(3), ParallelConfig{})
	})
}

// toyRing wires k shards into a ring of ping-pong timers: each shard's
// node, upon firing, re-arms locally and sends a cross-shard event to the
// next shard with delay w. It returns the runner and the per-shard trace.
// workers pins the pool size (0 = the GOMAXPROCS default).
func toyRing(k int, w Time, hops, workers int) (*Parallel, [][]string) {
	engines := make([]*Engine, k)
	for i := range engines {
		engines[i] = NewEngine()
	}
	var mail *Mailboxes
	if k > 1 {
		mail = NewMailboxes(k)
	}
	traces := make([][]string, k)
	// Each chain carries its own hop budget through the closure chain: the
	// only state crossing shards rides in the cross-shard events themselves,
	// whose handoff the epoch barrier orders.
	var hop func(shard, id, left int) func()
	hop = func(shard, id, left int) func() {
		return func() {
			eng := engines[shard]
			traces[shard] = append(traces[shard],
				fmt.Sprintf("t=%d shard=%d id=%d", eng.Now(), shard, id))
			if left <= 1 {
				return
			}
			next := (shard + 1) % k
			at := eng.Now() + w
			if next == shard {
				eng.At(at, hop(next, id+1, left-1))
			} else {
				mail.Outbox(shard, next).Send(at, Func(hop(next, id+1, left-1)))
			}
		}
	}
	// Two concurrent ping-pong chains starting on different shards, with a
	// timestamp collision at t=0 when k == 1.
	engines[0].At(0, hop(0, 0, hops/2))
	engines[(k-1)%k].At(0, hop((k-1)%k, 1000, hops-hops/2))
	return NewParallel(engines, mail, ParallelConfig{Window: w, Workers: workers}), traces
}

// TestParallelDeterministicToy runs the same toy workload twice per shard
// count and requires identical traces — the bit-identical-repetition half
// of the determinism contract, at the engine level.
func TestParallelDeterministicToy(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		run := func() [][]string {
			p, traces := toyRing(k, 7, 400, 0)
			if err := p.Run(); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			return traces
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k=%d: traces differ between repetitions", k)
		}
		total := 0
		for _, tr := range a {
			total += len(tr)
		}
		if total != 400 {
			t.Fatalf("k=%d: executed %d hops, want 400", k, total)
		}
	}
}

// TestParallelWorkerPoolEquivalence pins the worker-pool half of the
// determinism contract: the same workload is bit-identical whether the
// shards run on one goroutine, one per shard, or anything in between —
// the pool size only changes wall-clock behavior, never results.
func TestParallelWorkerPoolEquivalence(t *testing.T) {
	const k = 5
	run := func(workers int) [][]string {
		p, traces := toyRing(k, 7, 400, workers)
		if p.workers != workers {
			t.Fatalf("pool size = %d, want %d", p.workers, workers)
		}
		if err := p.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return traces
	}
	want := run(1)
	for _, workers := range []int{2, 3, k} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: traces differ from the single-worker run", workers)
		}
	}
	// Oversized requests clamp to the shard count.
	p, _ := toyRing(2, 1, 4, 16)
	if p.workers != 2 {
		t.Fatalf("pool size = %d for 2 shards, want clamp to 2", p.workers)
	}
}

// TestParallelSkipAhead verifies the horizon jumps over quiet gaps: with
// events spaced far apart relative to the lookahead, the epoch count must
// track the event count, not simulated-time / window.
func TestParallelSkipAhead(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	mail := NewMailboxes(2)
	p := NewParallel(engines, mail, ParallelConfig{Window: 1})
	// 50 events, each one million time units after the last.
	n := 0
	var next func()
	next = func() {
		if n++; n < 50 {
			engines[0].After(1_000_000, next)
		}
	}
	engines[0].At(0, next)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("executed %d events, want 50", n)
	}
	// A fixed-width window scheme would need ~50M epochs here.
	if p.Epochs() > 200 {
		t.Fatalf("epochs = %d, want skip-ahead (<= 200)", p.Epochs())
	}
}

// TestParallelPanicPropagates checks a worker panic surfaces as Run's
// error (with the shard identified) instead of crashing the process or
// deadlocking the sibling shards at a barrier.
func TestParallelPanicPropagates(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	mail := NewMailboxes(3)
	// One goroutine per shard, so the panic unwinds concurrently with live
	// sibling workers (the deadlock the recovery exists to prevent).
	p := NewParallel(engines, mail, ParallelConfig{Window: 1, Workers: 3})
	for i := 0; i < 3; i++ {
		eng := engines[i]
		var tick func()
		tick = func() { eng.After(1, tick) }
		engines[i].At(0, tick)
	}
	engines[1].At(500, func() { panic("boom") })
	err := p.Run()
	if err == nil {
		t.Fatal("Run returned nil after a shard panic")
	}
	if !strings.Contains(err.Error(), "shard 1 panicked") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error = %q, want shard 1 / boom", err)
	}
}

// TestParallelDoneStops checks the Done hook ends the run at a barrier.
func TestParallelDoneStops(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	mail := NewMailboxes(2)
	n := 0
	p := NewParallel(engines, mail, ParallelConfig{
		Window: 1,
		Done:   func() bool { return n >= 10 },
	})
	var tick func()
	tick = func() {
		n++
		engines[0].After(1, tick)
	}
	engines[0].At(0, tick)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if n < 10 || n > 10_000 {
		t.Fatalf("Done hook stopped after %d events", n)
	}
}

// TestParallelHorizonClosedForm pins the one-number lookahead: shard d
// runs below min(next(d)+2W, min over other busy shards s of next(s)+W),
// saturating, and unbounded when W = 0 or there is one shard.
func TestParallelHorizonClosedForm(t *testing.T) {
	const w = 5
	never := maxTime
	for _, c := range []struct {
		name   string
		window Time
		next   []Time // -1: the shard is idle
		want   []Time
	}{
		{"all busy", w, []Time{10, 12, 30}, []Time{17, 15, 15}},
		{"own echo binds", w, []Time{10, 100, -1}, []Time{20, 15, 15}},
		{"one busy shard", w, []Time{-1, 40, -1}, []Time{45, 50, 45}},
		{"nothing pending", w, []Time{-1, -1, -1}, []Time{never, never, never}},
		{"saturates", w, []Time{never - 1, -1, -1}, []Time{never, never, never}},
		{"no interaction", 0, []Time{10, 12, 30}, []Time{never, never, never}},
		{"one shard", w, []Time{10}, []Time{never}},
	} {
		engines := make([]*Engine, len(c.next))
		for i := range engines {
			engines[i] = NewEngine()
		}
		var mail *Mailboxes
		if len(engines) > 1 {
			mail = NewMailboxes(len(engines))
		}
		p := NewParallel(engines, mail, ParallelConfig{Window: c.window})
		for s, at := range c.next {
			p.next[s], p.has[s] = at, at >= 0
		}
		p.computeHorizons()
		if !reflect.DeepEqual(p.curEnds, c.want) {
			t.Errorf("%s: horizons %v, want %v", c.name, p.curEnds, c.want)
		}
	}
}

// TestParallelSelfEchoBound is the regression test for the echo term of
// the lookahead: a shard's own traffic can echo off a peer and come back,
// so its horizon must stay within the round-trip bound even while the
// peer is idle. A one-hop-only horizon lets the sender race ahead and the
// echo then schedules into its past (Engine.At panics).
func TestParallelSelfEchoBound(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	mail := NewMailboxes(2)
	const w = 5
	p := NewParallel(engines, mail, ParallelConfig{Window: w})
	replies := 0
	to1, to0 := mail.Outbox(0, 1), mail.Outbox(1, 0)
	for i := 0; i < 50; i++ {
		at := Time(i)
		engines[0].At(at, func() {
			to1.Send(engines[0].Now()+w, Func(func() { // ping
				to0.Send(engines[1].Now()+w, Func(func() { replies++ })) // echo
			}))
		})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if replies != 50 {
		t.Fatalf("got %d echoes, want 50", replies)
	}
}

// TestOutboxSendPhase checks the phase contract: a Send from the drain
// phase or after the run stopped panics with the shard pair named,
// instead of silently corrupting the next epoch's merge.
func TestOutboxSendPhase(t *testing.T) {
	mustPanicWith := func(name string, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "0->1") || !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want shard pair 0->1 and %q", name, msg, want)
			}
		}()
		fn()
	}

	// Drain phase: a mid-drain send races the receiver's merge.
	mail := NewMailboxes(2)
	mail.phase.Store(phaseDrain)
	mustPanicWith("send during drain", "drain", func() {
		mail.Outbox(0, 1).Send(1, Func(func() {}))
	})

	// After the run stopped: the runner parks the exchange in the stopped
	// phase, so a closure that leaked an outbox past the run fails loudly.
	engines := []*Engine{NewEngine(), NewEngine()}
	mail = NewMailboxes(2)
	p := NewParallel(engines, mail, ParallelConfig{Window: 1})
	out := mail.Outbox(0, 1)
	engines[0].At(0, func() { out.Send(1, Func(func() {})) })
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanicWith("send after stop", "stopped", func() {
		out.Send(100, Func(func() {}))
	})
}

// The drain schedules the Handler a sender handed over, as it is: once the
// box and the receiving engine have grown, a cross-shard event costs no
// allocation.
func TestMailboxHandOffDoesNotAllocate(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	mail := NewMailboxes(2)
	p := NewParallel(engines, mail, ParallelConfig{Window: 1})
	out := mail.Outbox(0, 1)
	ran := 0
	obj := &objEvent{run: func() { ran++ }}
	at := Time(0)
	const perRound = 64
	round := func() {
		for i := 0; i < perRound; i++ {
			at++
			out.Send(at, obj)
		}
		p.drainPhase(1)
		engines[1].Run()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%v allocations per round of %d hand-offs, want 0", n, perRound)
	}
	if want := 102 * perRound; ran != want {
		t.Fatalf("ran %d handed-off events, want %d", ran, want)
	}
}
