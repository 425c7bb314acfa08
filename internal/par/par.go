// Package par provides bounded-parallelism helpers for running independent
// simulations concurrently. Each simulation is single-threaded and
// deterministic; parallelism exists only across runs (parameter sweeps,
// protocol variants), so results are identical regardless of worker count.
//
// Workers are hardened for long sweeps: a panic inside one run is
// recovered and annotated with the run index instead of killing the whole
// process with a bare goroutine traceback, and after the first failure no
// worker claims another run (in-flight runs complete) so a sweep stops
// cleanly rather than burning hours on results that will be thrown away.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic recovered by MapErr: the run index that
// failed, the original panic value, and the worker's stack at the point of
// the panic.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("par: run %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// MapErr applies fn to each index in [0, n) on up to workers goroutines
// (workers <= 0 means GOMAXPROCS), collecting results in index order. The
// goroutines claim indices from one counter. The first failure is
// returned: an error from fn wrapped with its run index, or a recovered
// panic as *PanicError. After it no worker claims another index; runs
// already started complete, and MapErr waits for every one of them, so a
// failing sweep can never deadlock or leak workers. On error the returned
// slice holds the results of the runs that completed; unfinished slots are
// zero values.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		v, err := fn(i)
		if err != nil {
			return fmt.Errorf("par: run %d: %w", i, err)
		}
		out[i] = v
		return nil
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
		first  error
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := call(i); err != nil && failed.CompareAndSwap(false, true) {
					first = err
				}
			}
		}()
	}
	wg.Wait()
	return out, first
}
