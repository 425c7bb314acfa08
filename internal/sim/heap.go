package sim

// This file implements the engine's timer core: a 4-ary min-heap of entries.
// The delay lanes (see Lane) carry the constant-delay events — nearly all of
// a packet simulation's — so what is queued here is the remainder: pacing
// gaps, retransmission timers, odd-size serializations, flow starts (one per
// shard at a time, plus any added out of start order; see Engine.Reserve).
// That is a few percent of the events, and a heap's O(log n) on it is not
// what a run's time goes to.
//
// Determinism: the execution order is the total order (at, seq) — time,
// ties broken by scheduling sequence number. seq is unique, so the order is
// strict and any correct priority queue yields the same one, wherever equal
// times sit in the array. The golden experiment tests pin this.
type eventHeap struct {
	// h[0] is the minimum; the children of h[i] are h[heapArity*i+1 ...
	// heapArity*i+heapArity], none smaller than h[i]. The backing array is
	// the queue's only memory: it grows to the peak number of entries and is
	// never released.
	h []entry
}

// heapArity trades depth against compares per level. Four 32-byte children
// are 128 contiguous bytes, two or three cache lines, and a sift-down visits
// half the levels a binary heap's does; pushes, which only compare with
// parents, get the shallower tree for free.
const heapArity = 4

// entry is one scheduled event, on the heap and on a lane alike: the
// ordering key (at, seq) and the handler the engine fires, 32 bytes, of
// which the handler's two words are what the collector scans.
type entry struct {
	at  Time
	seq uint64
	h   Handler
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push stores an entry: the hole opened at the end moves up past every
// larger ancestor, and en is written once, where it stops.
func (q *eventHeap) push(en entry) {
	h := append(q.h, en)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !entryLess(en, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
	q.h = h
}

// pop removes the minimum, h[0]; the heap must not be empty. The last leaf
// takes the hole at the root and moves down past every smaller child. The
// vacated cell drops its handler, so a fired event holds nothing alive.
func (q *eventHeap) pop() {
	n := len(q.h) - 1
	en := q.h[n]
	q.h[n].h = nil
	h := q.h[:n]
	q.h = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+heapArity, n); j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], en) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = en
}
