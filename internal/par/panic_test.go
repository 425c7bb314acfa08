package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A worker panic must surface as exactly one *PanicError returned to the
// caller — annotated with the failing index and stack — after every
// in-flight run has drained (no deadlock, no leaked goroutines, no bare
// goroutine traceback killing the process), with one worker as with four.
func TestForEachPanicSurfaces(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			finished := make(chan error, 1)
			go func() {
				finished <- forEachErr(50, workers, func(i int) error {
					if i == 13 {
						panic("boom")
					}
					return nil
				})
			}()
			var err error
			select {
			case err = <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("forEachErr deadlocked after a worker panic")
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *PanicError", err, err)
			}
			if pe.Index != 13 {
				t.Errorf("PanicError.Index = %d, want 13", pe.Index)
			}
			if pe.Value != "boom" {
				t.Errorf("PanicError.Value = %v, want boom", pe.Value)
			}
			if !strings.Contains(pe.Error(), "run 13 panicked") {
				t.Errorf("error message %q missing run index", pe.Error())
			}
			if len(pe.Stack) == 0 {
				t.Error("PanicError.Stack is empty")
			}
		})
	}
}

func TestForEachErrAnnotatesError(t *testing.T) {
	sentinel := errors.New("sim exploded")
	err := forEachErr(20, 4, func(i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if err == nil {
		t.Fatal("error was swallowed")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "run 7") {
		t.Errorf("error %q missing run index", err)
	}
}

func TestForEachErrRecoversPanicAsError(t *testing.T) {
	err := forEachErr(20, 4, func(i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Index != 3 || pe.Value != "kaboom" {
		t.Fatalf("PanicError = {Index:%d Value:%v}", pe.Index, pe.Value)
	}
}

// The first failure must stop the dispatch of remaining runs: an erroring
// sweep should not execute all n runs before reporting.
func TestForEachErrCancelsDispatch(t *testing.T) {
	// Serial case is exact: the error at index 0 means exactly one run.
	var serial int64
	err := forEachErr(10000, 1, func(i int) error {
		atomic.AddInt64(&serial, 1)
		return errors.New("stop")
	})
	if err == nil || serial != 1 {
		t.Fatalf("serial: ran %d runs (err=%v), want exactly 1", serial, err)
	}

	// Parallel case: every run fails, and a worker checks for a failure
	// before it claims an index, so each worker's first run is its last:
	// at most workers runs, however the workers are scheduled.
	const n, workers = 1_000_000, 4
	var parallel int64
	err = forEachErr(n, workers, func(i int) error {
		atomic.AddInt64(&parallel, 1)
		return errors.New("stop")
	})
	if err == nil {
		t.Fatal("parallel: error was swallowed")
	}
	if got := atomic.LoadInt64(&parallel); got > workers {
		t.Errorf("parallel: %d of %d runs executed after the first failure; cancellation is not working", got, n)
	}
}

func TestMapErrPartialResults(t *testing.T) {
	out, err := MapErr(8, 1, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("stop")
		}
		return i * 10, nil
	})
	if err == nil || !strings.Contains(err.Error(), "run 4") {
		t.Fatalf("err = %v, want annotated run 4 error", err)
	}
	if len(out) != 8 {
		t.Fatalf("len(out) = %d, want 8 (zero-filled)", len(out))
	}
	for i := 0; i < 4; i++ {
		if out[i] != i*10 {
			t.Errorf("out[%d] = %d, want %d (completed runs keep results)", i, out[i], i*10)
		}
	}
	for i := 4; i < 8; i++ {
		if out[i] != 0 {
			t.Errorf("out[%d] = %d, want 0 (unfinished slot)", i, out[i])
		}
	}
}

func TestMapErrSuccess(t *testing.T) {
	out, err := MapErr(50, 8, func(i int) (string, error) {
		return fmt.Sprint(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprint(i) {
			t.Fatalf("out[%d] = %q", i, v)
		}
	}
}

// Concurrent failures from several workers must still produce exactly one
// error and a clean shutdown (exercised heavily under -race).
func TestForEachErrManyConcurrentFailures(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		err := forEachErr(64, 8, func(i int) error {
			return fmt.Errorf("fail %d", i)
		})
		if err == nil {
			t.Fatal("no error returned when every run failed")
		}
	}
}
