// Package par provides bounded-parallelism helpers for running independent
// simulations concurrently. Each simulation is single-threaded and
// deterministic; parallelism exists only across runs (parameter sweeps,
// protocol variants), so results are identical regardless of worker count.
//
// Workers are hardened for long sweeps: a panic inside one run is
// recovered and annotated with the run index instead of killing the whole
// process with a bare goroutine traceback, and the first failure cancels
// the dispatch of remaining runs (in-flight runs complete) so a sweep
// stops cleanly rather than burning hours on results that will be thrown
// away.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
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

// forEachErr runs fn(i) for i in [0, n) on up to workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns the first failure observed,
// or nil. Errors returned by fn are wrapped with the run index; panics are
// recovered into *PanicError. The first failure cancels dispatch of
// remaining indices (runs already started complete normally), and
// forEachErr always waits for every started run before returning — a
// failing sweep can never deadlock or leak workers.
func forEachErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		if err := fn(i); err != nil {
			return fmt.Errorf("par: run %d: %w", i, err)
		}
		return nil
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		next  = make(chan int)
		done  = make(chan struct{})
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			close(done)
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if err := call(i); err != nil {
					fail(err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return first
}

// MapErr applies fn to each index in parallel, collecting results in
// order, with forEachErr's failure semantics: the first error (or
// recovered panic) is returned, annotated with its run index, and cancels
// the dispatch of remaining indices. On error the returned slice holds the
// results of the runs that completed; unfinished slots are zero values.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := forEachErr(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
