package sim

import (
	"math/rand"
	"testing"
)

// Pending must stay consistent through interleaved scheduling and
// execution — it is maintained incrementally, not recounted.
func TestEnginePendingTracksLiveThroughExecution(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(7))
	scheduled, executed := 0, 0
	for i := 0; i < 5000; i++ {
		if r.Intn(2) == 0 {
			e.After(Time(r.Intn(100)+1), func() {})
			scheduled++
		} else if e.Step() {
			executed++
		}
		st := e.Stats()
		if want := int(st.Scheduled) - int(st.Steps); e.Pending() != want || want != scheduled-executed {
			t.Fatalf("op %d: Pending()=%d, want %d (scheduled=%d steps=%d)",
				i, e.Pending(), scheduled-executed, st.Scheduled, st.Steps)
		}
		if int(st.Steps) != executed {
			t.Fatalf("op %d: Steps=%d, want %d", i, st.Steps, executed)
		}
	}
}

func TestEngineStatsCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.At(Time(i+1), func() {})
	}
	e.Run()

	st := e.Stats()
	if st.Scheduled != 10 {
		t.Errorf("Scheduled = %d, want 10", st.Scheduled)
	}
	if st.Steps != 10 {
		t.Errorf("Steps = %d, want 10", st.Steps)
	}
	if st.Pending != 0 {
		t.Errorf("Pending = %d, want 0", st.Pending)
	}
	if st.PeakPending != 10 {
		t.Errorf("PeakPending = %d, want 10", st.PeakPending)
	}
}
