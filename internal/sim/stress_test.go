package sim

import (
	"math/rand"
	"testing"
)

// TestEngineStressMixedOps hammers the engine with interleaved schedules
// and RunUntil boundaries, checking global ordering and exactly-once
// execution.
func TestEngineStressMixedOps(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(7))

	executed := map[int]int{}
	var last Time = -1
	id := 0

	schedule := func(d Time) {
		id++
		myID := id
		e.After(d, func() {
			executed[myID]++
			if e.Now() < last {
				t.Fatalf("time regressed at event %d", myID)
			}
			last = e.Now()
		})
	}

	for i := 0; i < 5000; i++ {
		schedule(Time(r.Intn(100_000)))
	}
	// Run in randomly sized chunks, scheduling more events between
	// chunks.
	horizon := Time(0)
	for horizon < 120_000 {
		horizon += Time(r.Intn(10_000))
		e.RunUntil(horizon)
		if e.Now() != horizon {
			t.Fatalf("clock %v after RunUntil(%v)", e.Now(), horizon)
		}
		if r.Intn(2) == 0 {
			schedule(Time(r.Intn(30_000)))
		}
	}
	e.Run()

	for myID := 1; myID <= id; myID++ {
		if n := executed[myID]; n != 1 {
			t.Fatalf("event %d ran %d times, want exactly once", myID, n)
		}
	}
}
