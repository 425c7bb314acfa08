package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// The heap alone, against a sorted slice: random entries, most of them
// sharing a handful of times so that seq decides, pushed and popped in
// interleaved bursts, drained to empty and used again. Every pop must
// remove the (at, seq) minimum of what is stored, with its own handler.
func TestEventHeapPopsInOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q eventHeap
	var want []entry // sorted ascending, the model
	seq := uint64(0)
	push := func() {
		en := entry{at: Time(r.Intn(8)), seq: seq, h: &objEvent{}}
		if r.Intn(4) == 0 {
			en.at = Time(r.Int63())
		}
		seq++
		q.push(en)
		i, _ := slices.BinarySearchFunc(want, en, func(a, b entry) int {
			if entryLess(a, b) {
				return -1
			}
			return 1
		})
		want = slices.Insert(want, i, en)
	}
	pop := func() {
		if got := q.h[0]; got != want[0] {
			t.Fatalf("heap root %+v, want %+v (%d stored)", got, want[0], len(want))
		}
		q.pop()
		want = want[1:]
	}
	for round := 0; round < 20; round++ {
		for burst := 0; burst < 50; burst++ {
			for n := r.Intn(40); n > 0; n-- {
				push()
			}
			for n := r.Intn(40); n > 0 && len(want) > 0; n-- {
				pop()
			}
		}
		for len(want) > 0 {
			pop()
		}
		if len(q.h) != 0 {
			t.Fatalf("round %d: %d entries left in a drained heap", round, len(q.h))
		}
	}
}
