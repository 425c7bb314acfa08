package main

import (
	"container/heap"
	"time"
)

// The reference kernel is the denominator of the calibrated time metric
// (refops_per_pkt): a fixed piece of work run in short slices between
// batches of simulator steps, so it samples the machine's speed over the
// same window the simulator ran in. A shared 2-vCPU box drifts 10-25%
// between windows; the ratio of two interleaved timings does not.
//
// It imports no faircc package and takes no input, so no change to the
// repository can move it: a fixed-seed hold model (pop the earliest
// entry, push it back a pseudo-random distance later) over 8192 pending
// entries in a container/heap, touching a 256 KB scratch array - the
// shape of a discrete-event scheduler's work, which is what the box's
// drift has to be measured against. It never allocates, so the
// simulator's allocation deltas are unaffected by the slices run inside
// them.
const (
	refPending     = 8192
	refScratchLen  = 256 << 10 / 8
	refOpsPerSlice = 1 << 15 // ~5 ms on the reference 2.1 GHz Xeon
	refEvery       = 100 * time.Millisecond
)

type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refKernel struct {
	h       refHeap
	scratch []uint64
	x       uint64 // xorshift64 state

	ops int64
	ns  int64
}

func newRefKernel() *refKernel {
	k := &refKernel{h: make(refHeap, refPending), scratch: make([]uint64, refScratchLen), x: 0x9e3779b97f4a7c15}
	for i := range k.h {
		k.h[i] = k.next() & 0xfffff
	}
	heap.Init(&k.h)
	return k
}

func (k *refKernel) next() uint64 {
	x := k.x
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	k.x = x
	return x
}

// slice runs refOpsPerSlice hold operations and adds them to the totals.
func (k *refKernel) slice() {
	t0 := time.Now()
	for i := 0; i < refOpsPerSlice; i++ {
		x := k.next()
		k.h[0] += 1 + x&0xffff
		heap.Fix(&k.h, 0)
		k.scratch[(x>>24)%refScratchLen] += k.h[0]
	}
	k.ns += time.Since(t0).Nanoseconds()
	k.ops += refOpsPerSlice
}

// nsPerOp is the mean host time of one reference operation so far.
func (k *refKernel) nsPerOp() float64 { return float64(k.ns) / float64(k.ops) }

// checksum folds the kernel's state, for the determinism test.
func (k *refKernel) checksum() uint64 {
	sum := k.x
	for _, v := range k.h {
		sum = sum*31 + v
	}
	for _, v := range k.scratch {
		sum = sum*31 + v
	}
	return sum
}
