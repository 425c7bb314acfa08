package sim

import "math/bits"

// This file implements the engine's timer core: a ladder queue — a
// hierarchical bucket structure with a small sorted "current epoch" at the
// front. Packet simulations schedule almost every event a short, clustered
// distance into the future (serialization times, propagation delays, pacing
// gaps), which a comparison-based heap pays O(log n) per operation to
// handle. The ladder queue exploits the clustering: an event is linked into
// a coarse time bucket in O(1), and sorting work is deferred until a bucket
// reaches the front, where it is small (or is subdivided into a finer rung
// until it is). Each event is therefore touched O(1) amortized times
// regardless of how many are pending.
//
// Determinism: the execution order is the total order (at, seq) — time,
// ties broken by scheduling sequence number. Buckets are sorted by exactly
// that key before being consumed, so the event order is bit-for-bit
// identical to the previous binary-heap engine, and to any other correct
// priority queue, whatever order entries sit in inside a bucket. The golden
// experiment tests pin this.
//
// Structure invariants:
//
//   - cur[curHead:] is sorted ascending by (at, seq) and holds every stored
//     entry with at < curEnd. New entries below curEnd are insertion-sorted
//     into it (they are rare and the epoch is kept small; see splitCur).
//     It is one reused buffer: every promoted bucket is gathered into it.
//   - ladder holds rungs of buckets. ladder[i+1] subdivides one consumed
//     bucket interval of ladder[i], so remaining rung coverage, walked from
//     the deepest rung to rung 0, forms increasing disjoint time intervals
//     starting at curEnd.
//   - A bucket is a chain through the one arena nodes: the rung holds a
//     link to its newest node, each node a link to the next. A link is the
//     node's index plus one and 0 is nil, so a zeroed head array is a rung
//     of empty buckets. Released nodes chain LIFO from free, and the arena
//     grows only when that chain is empty: its length plateaus at the peak
//     number of bucketed entries.
//   - over holds entries at or beyond every rung's end, unsorted. When the
//     ladder is exhausted it is re-bucketed into a fresh rung 0 spanning
//     its time range.
//   - Interval bounds saturate at maxTime instead of wrapping. An entry at
//     maxTime may then sit under an exclusive bound equal to it; a later
//     push for that time has a higher seq and lands in over, which is
//     consumed after the whole ladder, so the order holds.
//
// The queue never inspects cancellation state: the engine cancels events by
// invalidating their slot generation and lazily discards stale entries as
// they surface at the front (see Engine.next).
type ladderQueue struct {
	cur     []entry // current epoch, sorted; consumed from curHead
	curHead int
	curEnd  Time // exclusive epoch bound: stored entries with at < curEnd are in cur

	ladder []rung
	over   []entry // entries beyond the ladder, unsorted

	nodes []node     // bucket-chain arena
	free  uint32     // link to the first released node
	hpool [][]uint32 // recycled rung head arrays
}

// entry is one scheduled occurrence: the ordering key (at, seq) plus a
// generation-stamped reference to the engine's event slot. Entries are
// deliberately pointer-free (24 bytes): a paper-scale run keeps tens of
// thousands of them pending, and keeping them scalar-only means the GC
// never scans queue memory and sorts move minimal data.
type entry struct {
	at  Time
	seq uint64
	idx uint32 // slot index in Engine.slots
	gen uint32 // slot generation at scheduling time
}

// node is one element of a bucket chain. Like entry it is pointer-free.
type node struct {
	entry
	next uint32 // link: index+1 of the next node, 0 at the end
}

// rung is one level of the ladder: len(heads) buckets of width picoseconds
// starting at start. end is the exclusive bound actually covered (it may be
// less than start+len(heads)*width when the span does not divide evenly).
type rung struct {
	start Time
	width Time
	recip uint64 // ceil(2^64/width): bucketOf divides by multiply (width >= 2)
	end   Time
	next  int      // next unconsumed bucket
	heads []uint32 // link to each bucket's newest node
}

// bucketOf maps a non-negative offset into the rung to its bucket index:
// floor(x/width) computed as a 128-bit multiply by the precomputed
// reciprocal. Pushes run one hardware divide per event otherwise, and at
// tens of millions of events the ~30-cycle divide is measurable. With
// recip = ceil(2^64/width) the high word is floor(x/width) or one above;
// a single conditional correction makes it exact, which bucket placement
// requires (a misplaced entry reorders execution).
func (r *rung) bucketOf(x Time) int {
	if r.width == 1 {
		return int(x)
	}
	hi, _ := bits.Mul64(uint64(x), r.recip)
	if hi*uint64(r.width) > uint64(x) {
		hi--
	}
	return int(hi)
}

// recipOf returns ceil(2^64/w) for w >= 2 (unused for w == 1).
func recipOf(w Time) uint64 {
	if w < 2 {
		return 0
	}
	return ^uint64(0)/uint64(w) + 1
}

// Tuning constants. sortMax bounds the sorting work done when a bucket
// reaches the front; buckets larger than that are subdivided into a
// childBuckets-wide finer rung instead (unless all entries share one
// timestamp, where subdividing cannot help). curSplitMax bounds the sorted
// epoch: beyond it, insertions re-bucket the epoch rather than pay O(n)
// memmove per insert. Overflow rungs scale their bucket count with the
// number of entries, within [minOverBuckets, maxOverBuckets].
const (
	sortMax        = 64
	childBuckets   = 64
	curSplitMax    = 256
	minOverBuckets = 8
	maxOverBuckets = 1 << 14
)

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sortEntries sorts a bucket ascending by (at, seq). It is a concrete-type
// quicksort (median-of-three pivot, insertion sort below a cutoff, recurse
// into the smaller half) replacing slices.SortFunc: the generic sort calls
// its comparator through a func value on every comparison, which profiled
// at ~20% of a datacenter-run's CPU, while here entryLess inlines to two
// integer compares. (at, seq) keys are distinct — seq is a unique
// scheduling counter — so equal-pivot pathologies cannot arise, and
// stability is irrelevant.
func sortEntries(b []entry) {
	for len(b) > entrySortCutoff {
		p := partitionEntries(b)
		if p < len(b)-p-1 {
			sortEntries(b[:p])
			b = b[p+1:]
		} else {
			sortEntries(b[p+1:])
			b = b[:p]
		}
	}
	for i := 1; i < len(b); i++ {
		en := b[i]
		j := i
		for j > 0 && entryLess(en, b[j-1]) {
			b[j] = b[j-1]
			j--
		}
		b[j] = en
	}
}

// entrySortCutoff is the size at or below which sortEntries switches to
// insertion sort. It must be >= 3 so partitionEntries always has distinct
// first/middle/last positions to draw its pivot from.
const entrySortCutoff = 32

// partitionEntries partitions b around a median-of-three pivot and returns
// its final index. After the median step b[0] <= pivot <= b[hi], so the two
// inner scans need no bounds checks: each is stopped by a sentinel.
func partitionEntries(b []entry) int {
	hi := len(b) - 1
	mid := hi / 2
	if entryLess(b[mid], b[0]) {
		b[0], b[mid] = b[mid], b[0]
	}
	if entryLess(b[hi], b[0]) {
		b[0], b[hi] = b[hi], b[0]
	}
	if entryLess(b[hi], b[mid]) {
		b[mid], b[hi] = b[hi], b[mid]
	}
	b[mid], b[hi-1] = b[hi-1], b[mid]
	pv := b[hi-1]
	i, j := 0, hi-1
	for {
		for i++; entryLess(b[i], pv); i++ {
		}
		for j--; entryLess(pv, b[j]); j-- {
		}
		if i >= j {
			break
		}
		b[i], b[j] = b[j], b[i]
	}
	b[i], b[hi-1] = b[hi-1], b[i]
	return i
}

// push stores an entry. O(1) except for the (small, bounded) sorted insert
// into the current epoch.
func (q *ladderQueue) push(en entry) {
	if en.at < q.curEnd {
		q.insertCur(en)
		return
	}
	for i := len(q.ladder) - 1; i >= 0; i-- {
		r := &q.ladder[i]
		if en.at < r.end {
			// A fresh overflow rung starts at the overflow minimum, which
			// may sit above curEnd; entries pushed into that gap fold into
			// bucket 0 and sort out on promotion.
			j := 0
			if en.at > r.start {
				j = r.bucketOf(en.at - r.start)
			}
			q.link(&r.heads[j], en)
			return
		}
	}
	q.over = append(q.over, en)
}

// insertCur insertion-sorts an entry into the current epoch. When the live
// region has grown past curSplitMax and actually spans more than one
// timestamp, it is re-bucketed into a finer rung first, shrinking curEnd so
// subsequent near-future pushes bucket in O(1) instead of memmoving a large
// epoch. (A same-timestamp region never splits: its inserts append at the
// end of the equal-key run, which is already O(1).)
func (q *ladderQueue) insertCur(en entry) {
	if len(q.cur)-q.curHead >= curSplitMax &&
		q.cur[q.curHead].at != q.cur[len(q.cur)-1].at {
		q.splitCur()
		q.push(en)
		return
	}
	// refill drops the consumed prefix, but an epoch kept alive by pushes
	// below curEnd never refills. Reclaim the prefix here once the buffer
	// is full and more than half consumed — the copy is paid for by the
	// slots it frees — so cap(cur) stays within a small multiple of the
	// epoch's peak population instead of growing with every event.
	if len(q.cur) == cap(q.cur) && q.curHead > len(q.cur)/2 {
		q.cur = q.cur[:copy(q.cur, q.cur[q.curHead:])]
		q.curHead = 0
	}
	// Appending at the end is the common case (pushes arrive roughly in
	// time order); it skips the search and never memmoves.
	if n := len(q.cur); n == q.curHead || entryLess(q.cur[n-1], en) {
		q.cur = append(q.cur, en)
		return
	}
	lo, hi := q.curHead, len(q.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(q.cur[mid], en) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.cur = append(q.cur, entry{})
	copy(q.cur[lo+1:], q.cur[lo:])
	q.cur[lo] = en
}

// splitCur re-buckets the unconsumed epoch region into a new deepest rung
// spanning [region min, curEnd) and empties cur. Entry order is preserved:
// the rung restores (at, seq) order bucket by bucket as it is consumed.
func (q *ladderQueue) splitCur() {
	region := q.cur[q.curHead:]
	start := region[0].at // region is sorted; this is its minimum
	q.ladder = append(q.ladder, q.newRung(start, q.curEnd, childBuckets, region))
	q.cur = q.cur[:0]
	q.curHead = 0
	q.curEnd = start
}

// refill replenishes the consumed epoch from the ladder: it promotes the
// next non-empty bucket of the deepest rung, subdividing buckets too large
// to sort cheaply, popping exhausted rungs, and re-bucketing the overflow
// once the ladder is empty. It reports false when no entries remain.
func (q *ladderQueue) refill() bool {
	q.cur = q.cur[:0]
	q.curHead = 0
	for {
		if n := len(q.ladder); n > 0 {
			r := &q.ladder[n-1]
			for r.next < len(r.heads) && r.heads[r.next] == 0 {
				r.next++
			}
			if r.next >= len(r.heads) {
				q.curEnd = r.end
				q.putHeads(r.heads) // every head is 0 by now
				q.ladder = q.ladder[:n-1]
				continue
			}
			bStart := r.start + Time(r.next)*r.width
			bEnd := min(satAdd(bStart, r.width), r.end)
			q.gather(r.heads[r.next])
			r.heads[r.next] = 0
			r.next++
			if len(q.cur) > sortMax && r.width > 1 && !sameAt(q.cur) {
				q.ladder = append(q.ladder, q.newRung(bStart, bEnd, childBuckets, q.cur))
				q.cur = q.cur[:0]
				continue
			}
			sortEntries(q.cur)
			q.curEnd = bEnd
			return true
		}
		if n := len(q.over); n > 0 {
			if n <= sortMax {
				// Small overflow: sort it straight into the epoch instead
				// of building a one-shot rung. This is the steady state of
				// lightly loaded simulations — a handful of timers chaining
				// each other.
				sortEntries(q.over)
				q.cur, q.over = q.over, q.cur
				q.curEnd = satAdd(q.cur[n-1].at, 1)
				return true
			}
			q.ladder = append(q.ladder, q.overflowRung())
			continue
		}
		return false
	}
}

// satAdd returns t+d for d >= 0, saturating at maxTime: one event at a
// "never" time must not wrap an interval bound negative.
func satAdd(t, d Time) Time {
	if s := t + d; s >= t {
		return s
	}
	return maxTime
}

// sameAt reports whether every entry of b carries one timestamp — the
// degenerate bucket subdivision cannot split.
func sameAt(b []entry) bool {
	for _, en := range b[1:] {
		if en.at != b[0].at {
			return false
		}
	}
	return true
}

// link prepends en to the chain at *head, reusing the most recently
// released node (the likeliest to be in cache) before growing the arena.
func (q *ladderQueue) link(head *uint32, en entry) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i-1].next
	} else {
		q.nodes = append(q.nodes, node{})
		i = uint32(len(q.nodes))
	}
	q.nodes[i-1] = node{en, *head}
	*head = i
}

// gather moves the non-empty chain at head into cur (newest entry first;
// the caller sorts) and releases its nodes with one splice onto the free
// chain.
func (q *ladderQueue) gather(head uint32) {
	nodes, cur, tail := q.nodes, q.cur[:0], head
	for i := head; i != 0; i = nodes[i-1].next {
		cur = append(cur, nodes[i-1].entry)
		tail = i
	}
	nodes[tail-1].next = q.free
	q.free = head
	q.cur = cur
}

// newRung builds a rung of about nb buckets whose first starts at start and
// whose last holds end, and distributes the given entries (at <= end) into
// it. Entries below start (overflow-gap entries folded forward) clamp into
// bucket 0.
func (q *ladderQueue) newRung(start, end Time, nb int, entries []entry) rung {
	width := (end-start)/Time(nb) + 1
	r := rung{start: start, width: width, recip: recipOf(width), end: end, heads: q.getHeads(int((end-start)/width) + 1)}
	for _, en := range entries {
		j := 0
		if en.at > start {
			j = r.bucketOf(en.at - start)
		}
		q.link(&r.heads[j], en)
	}
	return r
}

// overflowRung re-buckets the overflow into a fresh rung 0 spanning its
// observed time range, with a bucket count scaled to the entry count. The
// rung covers its last bucket whole, so pushes just past the range bucket too.
func (q *ladderQueue) overflowRung() rung {
	nb := minOverBuckets
	for nb < len(q.over) && nb < maxOverBuckets {
		nb <<= 1
	}
	lo, hi := q.over[0].at, q.over[0].at
	for _, en := range q.over[1:] {
		if en.at < lo {
			lo = en.at
		} else if en.at > hi {
			hi = en.at
		}
	}
	r := q.newRung(lo, hi, nb, q.over)
	r.end = satAdd(r.start+Time(len(r.heads)-1)*r.width, r.width)
	q.over = q.over[:0]
	return r
}

// getHeads and putHeads recycle rung head arrays. A rung is only retired
// once every bucket has been consumed (and its head zeroed), so a recycled
// array needs no clearing.
func (q *ladderQueue) getHeads(count int) []uint32 {
	for i := len(q.hpool) - 1; i >= 0; i-- {
		if cap(q.hpool[i]) >= count {
			h := q.hpool[i][:count]
			q.hpool[i] = q.hpool[len(q.hpool)-1]
			q.hpool = q.hpool[:len(q.hpool)-1]
			return h
		}
	}
	return make([]uint32, count)
}

func (q *ladderQueue) putHeads(h []uint32) {
	if len(q.hpool) < 32 {
		q.hpool = append(q.hpool, h[:0])
	}
}
