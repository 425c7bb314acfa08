package net

// queue is a FIFO packet queue with byte accounting, implemented as a
// growable ring buffer so sustained enqueue/dequeue churn does not
// allocate. The buffer length is always a power of two (grow doubles from
// queueMinCap), so ring indexing is a mask rather than a modulo. A ring
// never shrinks: like every other buffer in the simulator it keeps its
// high-water mark, so len(buf) is the most packets it has had to hold,
// rounded up to a power of two no smaller than queueMinCap.
const queueMinCap = 16

type queue struct {
	buf   []*Packet
	head  int
	n     int
	bytes int64
	// peak tracks the maximum byte occupancy so far.
	peak int64
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
	q.bytes += int64(p.Wire)
	if q.bytes > q.peak {
		q.peak = q.bytes
	}
}

// Pop removes and returns the head packet, or nil if empty.
func (q *queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.bytes -= int64(p.Wire)
	return p
}

// grow doubles the full buffer (to queueMinCap from empty), unrolling the
// ring so the head lands at index 0.
func (q *queue) grow() {
	buf := make([]*Packet, max(2*len(q.buf), queueMinCap))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
