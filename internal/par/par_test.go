package par

import (
	"sync/atomic"
	"testing"
)

// forEachErr runs fn through MapErr for the tests that need no results.
func forEachErr(n, workers int, fn func(i int) error) error {
	_, err := MapErr(n, workers, func(i int) (struct{}, error) { return struct{}{}, fn(i) })
	return err
}

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var count int64
		seen := make([]int64, 100)
		err := forEachErr(100, workers, func(i int) error {
			atomic.AddInt64(&count, 1)
			atomic.AddInt64(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count != 100 {
			t.Fatalf("workers=%d ran %d, want 100", workers, count)
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("workers=%d index %d ran %d times", workers, i, s)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ran := false
	err := forEachErr(0, 4, func(int) error { ran = true; return nil })
	if ran || err != nil {
		t.Fatalf("n=0: fn ran = %v, err = %v", ran, err)
	}
}
