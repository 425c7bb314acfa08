package net

// queue is a FIFO packet queue with byte accounting, implemented as a
// growable ring buffer so sustained enqueue/dequeue churn does not
// allocate. The buffer length is always a power of two (grow doubles from
// 16, shrink halves), so ring indexing is a mask rather than a modulo.
//
// Shrink policy: every max(queueShrinkAfter, capacity) Pops the queue
// checks the occupancy peak over that window, and if the window never
// reached a quarter of the capacity the buffer is reallocated at half, down
// to queueMinCap — so one incast burst does not pin peak queue capacity for
// the rest of a long run. Two details keep the policy from thrashing on
// cyclic traffic: the decision uses the windowed peak rather than
// instantaneous occupancy (a queue oscillating just under its grow
// threshold would otherwise alternate grow and shrink allocations
// forever), and the window scales with capacity, so a large ring must
// prove underuse over proportionally many Pops — periodic bursts re-fill
// it before it can halve, instead of shrink/grow churn on every cycle.
// Shrinking only moves memory; FIFO order, byte accounting and
// simulation results are untouched.
const (
	queueMinCap      = 16
	queueShrinkAfter = 32
)

type queue struct {
	buf   []*Packet
	head  int
	n     int
	bytes int64
	// peak tracks the maximum byte occupancy so far.
	peak int64
	// popTick counts Pops toward the next shrink decision and winPeak the
	// packet-occupancy peak inside that window; capPeak and shrinks feed
	// the NetworkStats high-water/shrink counters.
	popTick int32
	winPeak int32
	capPeak int32
	shrinks int32
}

// Len returns the number of queued packets.
func (q *queue) Len() int { return q.n }

// Bytes returns the queued bytes (wire sizes).
func (q *queue) Bytes() int64 { return q.bytes }

// Peak returns the maximum byte occupancy so far.
func (q *queue) Peak() int64 { return q.peak }

// Push appends a packet.
func (q *queue) Push(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
	if int32(q.n) > q.winPeak {
		q.winPeak = int32(q.n)
	}
	q.bytes += int64(p.Wire)
	if q.bytes > q.peak {
		q.peak = q.bytes
	}
}

// PushFront prepends a packet (used for PFC control frames, which preempt
// queued data).
func (q *queue) PushFront(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = p
	q.n++
	if int32(q.n) > q.winPeak {
		q.winPeak = int32(q.n)
	}
	q.bytes += int64(p.Wire)
	if q.bytes > q.peak {
		q.peak = q.bytes
	}
}

// Pop removes and returns the head packet, or nil if empty. It also runs
// the shrink policy: the common case (capacity already at the floor) costs
// one comparison.
func (q *queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.bytes -= int64(p.Wire)
	if c := len(q.buf); c > queueMinCap {
		window := int32(queueShrinkAfter)
		if int32(c) > window {
			window = int32(c)
		}
		if q.popTick++; q.popTick >= window {
			if int(q.winPeak) < c/4 {
				q.shrink()
			}
			q.popTick, q.winPeak = 0, int32(q.n)
		}
	}
	return p
}

func (q *queue) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = queueMinCap
	}
	q.realloc(size)
	if int32(size) > q.capPeak {
		q.capPeak = int32(size)
	}
}

// shrink halves the buffer after a sustained-underuse window. The window
// peak was below a quarter of the old capacity, so the current occupancy
// always fits the new half.
func (q *queue) shrink() {
	q.realloc(len(q.buf) / 2)
	q.shrinks++
}

func (q *queue) realloc(size int) {
	buf := make([]*Packet, size)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = buf
	q.head = 0
}
