// Conservative, barrier-synchronized parallel execution: several engines
// (one per topology shard) advance through per-shard time windows,
// exchanging cross-shard events through mailboxes at window boundaries.
//
// The synchronization protocol is the classic YAWNS window scheme with one
// lookahead number W: every cross-shard interaction takes at least W of
// simulated time (in this simulator, the smallest propagation delay of any
// link between nodes on different shards). Influence can relay — src
// affects mid which affects dst — but every hop costs at least W, so an
// event pending on another shard s lands on d no earlier than next(s)+W,
// and d's own pending work can come back to it, echoed off a peer, no
// earlier than next(d)+2W. Each epoch therefore sets, for every shard d,
//
//	horizon(d) = min(next(d) + 2W, min over other busy shards s of next(s) + W)
//
// (saturating; a shard that is not busy contributes nothing), and every
// shard executes its events with time strictly below its own horizon,
// independently and without locks. This is safe because events cross
// shards only at barriers: a delivery to d at time T belongs to a causal
// chain whose origin event is pending on some shard right now (mailboxes
// are empty at the decision point, and nothing is spontaneous), so T is at
// least the bound above — it can never land in the past of a receiver that
// raced ahead inside the same window. On a complete shard graph whose every
// cross link has delay W (a fat-tree cut by topo's ShardMap) the bound is
// exact, not merely safe. When every shard is idle until some future time
// the horizon jumps straight there (skip-ahead), so quiet phases cost one
// barrier rather than thousands.
//
// As a liveness backstop each run phase is additionally cut after a fixed
// event budget (phaseEventCap): a shard with an unbounded horizon — no
// busy peers can reach it — still returns to the barrier periodically so
// Done and Stop are evaluated with bounded latency. The cut is a pure
// function of the shard's executed-event count, so it never breaks
// repetition determinism.
//
// Shards are decoupled from goroutines: each phase, a pool of at most
// min(shards, GOMAXPROCS) workers claims shard indices from an atomic
// counter (see ParallelConfig.Workers). Within a phase shards touch
// disjoint state, so which worker runs which shard is invisible to the
// simulation — and a 1-core machine driving many shards degenerates to a
// plain loop with no context switches or barrier contention at all.
//
// Determinism contract: cross-shard events are stamped with a
// (time, srcShard, localSeq) key; each barrier exchange schedules them
// into the receiving engine in exactly that order, so same-timestamp ties
// resolve identically on every run. All stop/finish decisions are
// evaluated only at barriers, where every shard's state is a pure function
// of the simulation inputs. A run with a fixed shard count is
// bit-identical across repetitions (and across worker scheduling or pool
// size); runs with different shard counts, windows, or runner versions
// are each internally deterministic but may differ from one another,
// because those choices re-partition the PRNG streams, the epoch
// boundaries, and the same-timestamp tie order at shard boundaries.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// maxTime is the largest representable simulated time; it serves as the
// horizon when no busy peer bounds a shard.
const maxTime = Time(math.MaxInt64)

// satAdd returns t+d for d >= 0, saturating at maxTime: a horizon derived
// from a "never" time must not wrap negative.
func satAdd(t, d Time) Time {
	if s := t + d; s >= t {
		return s
	}
	return maxTime
}

// phaseEventCap is the per-shard event budget of one run phase. It only
// matters when a shard's horizon is unbounded (or very wide): the shard
// returns to the barrier after this many events so Stop/Done latency stays
// bounded even if its queue self-replenishes forever. The cut depends only
// on the deterministic event sequence, never on wall time.
const phaseEventCap = 8192

// Mailbox exchange phases; see Mailboxes.phase.
const (
	phaseRun uint32 = iota
	phaseDrain
	phaseStopped
)

func phaseName(ph uint32) string {
	switch ph {
	case phaseRun:
		return "run"
	case phaseDrain:
		return "drain"
	case phaseStopped:
		return "stopped"
	}
	return fmt.Sprintf("phase-%d", ph)
}

// xev is one cross-shard event: the absolute time it must execute at on
// the receiving shard, the deterministic merge key (src shard id plus the
// sender's per-shard send sequence), and the handler.
type xev struct {
	at  Time
	seq uint64
	src int32
	h   Handler
}

// xbox is one (src, dst) mailbox. Send appends and tracks whether the box
// is still sorted by time (it almost always is: a sender's clock only
// moves forward, and all links of one shard pair usually share one delay,
// so per-box runs come out presorted and the drain-side sort is skipped).
// A box keeps the capacity of its busiest epoch; there are at most k² of
// them.
type xbox struct {
	evs    []xev
	lastAt Time // time of the most recent Send
	head   int  // merge cursor, used only inside drainPhase
	sorted bool // evs is nondecreasing in at (=> sorted by (at, seq))
}

// settle resets the box after a drain: handlers are released and the merge
// cursor rewinds.
func (b *xbox) settle() {
	clear(b.evs) // don't retain handlers past this epoch
	b.evs = b.evs[:0]
	b.head = 0
	b.sorted = true
}

// sortRun orders one box by (at, seq). src is constant within a box, so
// this is the full (time, srcShard, localSeq) merge key.
func sortRun(evs []xev) {
	slices.SortFunc(evs, func(a, b xev) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
}

// Mailboxes is the all-pairs cross-shard event exchange for k shards:
// one single-producer/single-consumer box per (src, dst) pair. During an
// epoch only src's worker appends to a box; at the barrier only dst's
// worker drains it — the phases are separated by the epoch barrier, so no
// box is ever touched from two goroutines at once. The phase field makes
// that contract checkable: Send panics outside the run phase instead of
// silently corrupting the next epoch's merge.
type Mailboxes struct {
	k     int
	phase atomic.Uint32 // phaseRun / phaseDrain / phaseStopped
	boxes []xbox        // boxes[src*k+dst]
	seqs  []uint64      // per-src send counter (shared by all of src's outboxes)
	outs  []Outbox      // pre-built handles, indexed src*k+dst
}

// NewMailboxes returns the exchange for k shards.
func NewMailboxes(k int) *Mailboxes {
	if k < 2 {
		panic(fmt.Sprintf("sim: mailboxes need at least 2 shards, got %d", k))
	}
	m := &Mailboxes{
		k:     k,
		boxes: make([]xbox, k*k),
		seqs:  make([]uint64, k),
		outs:  make([]Outbox, k*k),
	}
	for i := range m.boxes {
		m.boxes[i].sorted = true
	}
	for src := 0; src < k; src++ {
		for dst := 0; dst < k; dst++ {
			m.outs[src*k+dst] = Outbox{
				mail: m,
				box:  &m.boxes[src*k+dst],
				seq:  &m.seqs[src],
				src:  int32(src),
				dst:  int32(dst),
			}
		}
	}
	return m
}

// Outbox returns the sending handle for the (src, dst) pair. Handles are
// pre-built, so callers (ports, typically) can hold one pointer and send
// without any map or index arithmetic on the hot path.
func (m *Mailboxes) Outbox(src, dst int) *Outbox {
	if src == dst {
		panic("sim: outbox to own shard (schedule locally instead)")
	}
	return &m.outs[src*m.k+dst]
}

// Outbox is one (src, dst) sending handle. Send may only be called by the
// src shard's worker during its run phase.
type Outbox struct {
	mail *Mailboxes
	box  *xbox
	seq  *uint64
	src  int32
	dst  int32
}

// Send enqueues h to fire at absolute time at on the destination shard,
// where the drain schedules the same Handler it was handed. The (time, srcShard, localSeq) stamp fixes the merge order at
// the receiving side. Send panics when called outside the sender's run
// phase (from a drain, or after the run stopped): such a send would race
// the receiver's merge, so the phase assertion turns a silent corruption
// into an immediate failure naming the shard pair. The check is one
// atomic load — cheap enough to stay on in every build.
func (o *Outbox) Send(at Time, h Handler) {
	if ph := o.mail.phase.Load(); ph != phaseRun {
		panic(fmt.Sprintf("sim: outbox %d->%d: Send during the %s phase (cross-shard sends are only legal from the sender's run phase)",
			o.src, o.dst, phaseName(ph)))
	}
	b := o.box
	if at < b.lastAt && len(b.evs) > 0 {
		b.sorted = false
	}
	b.lastAt = at
	b.evs = append(b.evs, xev{at: at, seq: *o.seq, src: o.src, h: h})
	*o.seq++
}

// barrier is a reusable sense-reversing rendezvous for n goroutines. The
// last arriver runs the supplied action — a single-writer window in which
// shared epoch state (horizons, stop flag) is read and written with plain
// operations while every sibling is quiesced — then flips the sense to
// release everyone. Waiters spin briefly with runtime.Gosched (on a busy
// machine the release lands within a few scheduler passes, so epochs cost
// no futex round-trips at all) and fall back to parking on a condvar.
type barrier struct {
	n     int32
	count atomic.Int32  // arrivals in the current crossing
	sense atomic.Uint32 // flips 0/1 at each release

	sleepers atomic.Int32 // waiters parked (or parking) on cond
	mu       sync.Mutex
	cond     *sync.Cond
}

func newBarrier(n int) *barrier {
	b := &barrier{n: int32(n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// barrierSpin bounds the yield-spin before a waiter parks. Spinning is
// cheap (one atomic load + Gosched per round) and almost always wins:
// epochs are far shorter than a park/unpark round-trip.
const barrierSpin = 64

// wait blocks until all n goroutines have arrived. sense is the caller's
// thread-local sense word, flipped on every crossing; exactly one caller —
// the last to arrive — runs action (which may be nil) before the release.
func (b *barrier) wait(sense *uint32, action func()) {
	s := *sense ^ 1
	*sense = s
	if b.count.Add(1) == b.n {
		if action != nil {
			action()
		}
		// Reset before the sense flip: released waiters may re-arrive at
		// the next crossing immediately, but they cannot have observed the
		// flip before the reset is visible.
		b.count.Store(0)
		b.sense.Store(s)
		if b.sleepers.Load() != 0 {
			// The empty critical section fences against a waiter that
			// checked the sense before the flip but has not parked yet: it
			// holds mu from its sleepers increment until cond.Wait parks
			// it, so after Lock/Unlock every such waiter is parked and the
			// broadcast cannot be lost.
			b.mu.Lock()
			b.mu.Unlock() //nolint:staticcheck // empty section is the fence
			b.cond.Broadcast()
		}
		return
	}
	for i := 0; i < barrierSpin; i++ {
		if b.sense.Load() == s {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	b.sleepers.Add(1)
	for b.sense.Load() != s {
		b.cond.Wait()
	}
	b.sleepers.Add(-1)
	b.mu.Unlock()
}

// ParallelConfig parameterizes a Parallel runner.
type ParallelConfig struct {
	// Window is the lookahead W: the minimum latency of any cross-shard
	// interaction (Network.Shard derives it from the cross-shard link
	// delays). Zero means the shards cannot interact at all, and each
	// epoch runs to queue exhaustion (or phaseEventCap).
	Window Time
	// Done, when non-nil, is evaluated at every epoch barrier (by exactly
	// one goroutine, with all shard work quiesced); returning true stops
	// the run. Experiments pass Network.AllFinished here.
	Done func() bool
	// Workers bounds the worker-goroutine pool. Zero (the default) means
	// min(shards, GOMAXPROCS): shards are claimed from a counter each
	// phase, so running k shards on fewer goroutines than k costs nothing
	// but the loop — while k goroutines on fewer cores would pay context
	// switches and cache competition at every barrier for no parallelism.
	// Results are bit-identical for every worker count; tests pin
	// Workers to the shard count to keep exercising the concurrent paths
	// regardless of the machine they run on.
	Workers int
}

// Parallel drives k engines through barrier-synchronized time windows on
// a pool of worker goroutines (at most one per schedulable core — see
// ParallelConfig.Workers). Construct with NewParallel, start with Run;
// Stop cancels from any goroutine. A Parallel is single-use.
type Parallel struct {
	engines []*Engine
	mail    *Mailboxes
	window  Time // lookahead W; 0 when no shard can reach another
	doneFn  func() bool
	workers int

	bar *barrier
	// Phase work queues: each phase, workers claim shard indices from the
	// matching counter until it passes the shard count. Which worker runs
	// which shard never affects results — shards touch disjoint state
	// within a phase — so the counters need no further coordination. Both
	// are reset inside barrier actions.
	runIdx   atomic.Int32
	drainIdx atomic.Int32
	// Epoch state: written only inside barrier actions (or before the
	// workers start), read by workers between barriers — the barrier
	// orders every access.
	curEnds []Time // per-shard run-phase horizon
	curStop bool
	next    []Time    // per-shard next-event time after drain
	has     []bool    // per-shard: any event pending at all
	runs    [][]*xbox // per-shard drain scratch: the non-empty inbox runs
	epochs  uint64

	stopReq atomic.Bool

	// Progress counters. progEvents advances mid-epoch (runPhase adds its
	// 1024-event batches as they complete) and is reconciled to the exact
	// total at each barrier; progNow/progEpochs advance at barriers only.
	// An observer goroutine can watch a run without synchronizing with
	// (or perturbing) the workers.
	progEvents atomic.Uint64
	progEpochs atomic.Uint64
	progNow    atomic.Int64

	errMu sync.Mutex
	err   error
}

// NewParallel builds a runner over the given engines. mail must have been
// created for exactly len(engines) shards; it may be nil only for a
// single engine (no cross-shard traffic to exchange).
func NewParallel(engines []*Engine, mail *Mailboxes, cfg ParallelConfig) *Parallel {
	if len(engines) == 0 {
		panic("sim: parallel runner needs at least one engine")
	}
	if mail != nil && mail.k != len(engines) {
		panic(fmt.Sprintf("sim: mailboxes built for %d shards, got %d engines", mail.k, len(engines)))
	}
	if mail == nil && len(engines) > 1 {
		panic("sim: multiple engines require mailboxes")
	}
	k := len(engines)
	window := cfg.Window
	if k == 1 {
		window = 0 // no peer to hear from or echo off
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	p := &Parallel{
		engines: engines,
		mail:    mail,
		window:  window,
		doneFn:  cfg.Done,
		workers: workers,
		bar:     newBarrier(workers),
		curEnds: make([]Time, k),
		next:    make([]Time, k),
		has:     make([]bool, k),
		runs:    make([][]*xbox, k),
	}
	for w := range p.runs {
		p.runs[w] = make([]*xbox, 0, k)
	}
	return p
}

// computeHorizons sets every shard's run-phase horizon from the quiesced
// per-shard next-event times: shard d may run strictly below
// min(next(d)+2W, min over other busy shards s of next(s)+W) — the
// earliest time pending work anywhere, its own echoed off a peer included,
// could make an event land on it. Saturates at maxTime when nothing bounds
// the shard (W = 0: no shard can reach another).
func (p *Parallel) computeHorizons() {
	for d := range p.curEnds {
		h := maxTime
		for s, busy := range p.has {
			if !busy || p.window == 0 {
				continue
			}
			t := satAdd(p.next[s], p.window)
			if s == d {
				t = satAdd(t, p.window)
			}
			h = min(h, t)
		}
		p.curEnds[d] = h
	}
}

// Run executes epochs until every queue drains, Done reports true, Stop
// is called, or a shard panics (the panic is recovered and returned as an
// error rather than crashing sibling shards mid-epoch). It blocks until
// all workers have parked at a barrier and exited.
func (p *Parallel) Run() error {
	any := false
	minNext := maxTime
	for w, e := range p.engines {
		t, ok := e.NextEventTime()
		p.next[w], p.has[w] = t, ok
		if ok && t < minNext {
			minNext, any = t, true
		}
	}
	if !any || (p.doneFn != nil && p.doneFn()) {
		return nil
	}
	p.computeHorizons()
	p.progNow.Store(int64(minNext))
	var wg sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.worker()
		}()
	}
	wg.Wait()
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// Stop requests cancellation. Workers notice within ~1024 events even
// mid-epoch; the run then winds down at the next barrier. Safe to call
// from any goroutine, including Done and signal handlers.
func (p *Parallel) Stop() { p.stopReq.Store(true) }

// Progress returns the run's observable counters: total events executed
// across all shards (live to within 1024 events per shard, so a long or
// skip-ahead epoch still shows motion), the simulated-time floor every
// shard had reached at the most recent barrier, and epochs completed.
// Safe to call concurrently with Run; reading it never perturbs the
// simulation.
func (p *Parallel) Progress() (events uint64, now Time, epochs uint64) {
	return p.progEvents.Load(), Time(p.progNow.Load()), p.progEpochs.Load()
}

// Epochs returns the number of barrier-synchronized windows completed.
func (p *Parallel) Epochs() uint64 { return p.progEpochs.Load() }

func (p *Parallel) worker() {
	k := int32(len(p.engines))
	var sense uint32
	for {
		if p.curStop {
			return
		}
		for {
			w := p.runIdx.Add(1) - 1
			if w >= k {
				break
			}
			p.runPhase(int(w), p.curEnds[w])
		}
		// Barrier 1: every shard has finished executing inside its window,
		// so every cross-shard send for this epoch is in its box. The
		// action flips the exchange into the drain phase so a straggling
		// Send would panic instead of racing the merges.
		p.bar.wait(&sense, p.beginDrain)
		for {
			w := p.drainIdx.Add(1) - 1
			if w >= k {
				break
			}
			p.drainPhase(int(w))
		}
		// Barrier 2: every inbox is merged; the last arriver computes the
		// next horizons and the stop decision from fully quiesced state.
		p.bar.wait(&sense, p.advance)
	}
}

// beginDrain is the first barrier's action.
func (p *Parallel) beginDrain() {
	p.drainIdx.Store(0)
	if p.mail != nil {
		p.mail.phase.Store(phaseDrain)
	}
}

// fail records the first worker panic and requests a cooperative stop.
// The panicking worker keeps participating in barriers so its siblings
// are released rather than deadlocked.
func (p *Parallel) fail(w int, r any) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = fmt.Errorf("sim: shard %d panicked: %v\n%s", w, r, debug.Stack())
	}
	p.errMu.Unlock()
	p.stopReq.Store(true)
}

// runPhase executes shard w's events with time strictly below end. Every
// 1024 events it publishes the batch to the progress counter and checks
// for cancellation (so a Stop mid-epoch does not have to wait for a long
// window to drain) and for the deterministic phaseEventCap cut.
func (p *Parallel) runPhase(w int, end Time) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(w, r)
		}
	}()
	eng := p.engines[w]
	n := 0
	for eng.StepBefore(end) {
		if n++; n&1023 == 0 {
			p.progEvents.Add(1024)
			if n >= phaseEventCap {
				return
			}
			if p.stopReq.Load() {
				return
			}
		}
	}
}

// drainPhase merges shard w's inboxes — every (src, w) box — in the
// deterministic (time, srcShard, localSeq) order and schedules the events
// into w's engine, then publishes w's next-event time for the horizon
// computation at the following barrier.
//
// Each box is already a (time, seq)-sorted run in the common case (the
// sender's clock only moves forward; Send tracks the exception), so the
// merge is a typed k-way merge over at most k-1 run heads — no reflection,
// no full-buffer sort, no intermediate copy. Ties pick the lowest source
// shard because runs are visited in ascending src order. The order events
// are scheduled in is the order of their seq in w's engine, which decides
// between equal times there.
func (p *Parallel) drainPhase(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(w, r)
		}
	}()
	eng := p.engines[w]
	if m := p.mail; m != nil {
		runs := p.runs[w][:0]
		for src := 0; src < m.k; src++ {
			if src == w {
				continue
			}
			b := &m.boxes[src*m.k+w]
			if len(b.evs) == 0 {
				continue
			}
			if !b.sorted {
				sortRun(b.evs)
				b.sorted = true
			}
			runs = append(runs, b)
		}
		p.runs[w] = runs // keep any grown capacity for the next epoch
		switch len(runs) {
		case 0:
		case 1:
			evs := runs[0].evs
			for i := range evs {
				eng.Schedule(evs[i].at, evs[i].h)
			}
		default:
			for len(runs) > 1 {
				best, bt := 0, runs[0].evs[runs[0].head].at
				for i := 1; i < len(runs); i++ {
					if t := runs[i].evs[runs[i].head].at; t < bt {
						best, bt = i, t
					}
				}
				b := runs[best]
				eng.Schedule(bt, b.evs[b.head].h)
				if b.head++; b.head == len(b.evs) {
					runs = append(runs[:best], runs[best+1:]...)
				}
			}
			last := runs[0]
			for _, ev := range last.evs[last.head:] {
				eng.Schedule(ev.at, ev.h)
			}
		}
		for src := 0; src < m.k; src++ {
			if src != w {
				m.boxes[src*m.k+w].settle()
			}
		}
	}
	t, ok := eng.NextEventTime()
	p.next[w], p.has[w] = t, ok
}

// advance is the epoch-barrier action: executed by exactly one goroutine
// while every other worker is parked, it publishes progress and computes
// the next windows (or the stop decision) from globally quiesced state —
// the only place such decisions are made, which is what keeps fixed-shard
// runs bit-identical across repetitions.
func (p *Parallel) advance() {
	p.epochs++
	minNext, any := Time(0), false
	var events uint64
	for w, e := range p.engines {
		events += e.Steps()
		if p.has[w] && (!any || p.next[w] < minNext) {
			minNext, any = p.next[w], true
		}
	}
	// Reconcile the mid-epoch estimate to the exact total. The estimate
	// only ever lags (runPhase publishes completed 1024-event batches), so
	// Progress stays monotone.
	p.progEvents.Store(events)
	p.progEpochs.Store(p.epochs)
	stop := p.stopReq.Load() || !any
	if !stop && p.doneFn != nil && p.doneFn() {
		stop = true
	}
	if stop {
		p.curStop = true
		if p.mail != nil {
			p.mail.phase.Store(phaseStopped)
		}
		return
	}
	p.progNow.Store(int64(minNext))
	p.computeHorizons()
	p.runIdx.Store(0)
	if p.mail != nil {
		p.mail.phase.Store(phaseRun)
	}
}
