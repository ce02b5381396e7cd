// Package parallel is the fan-out engine behind the repository's
// embarrassingly parallel drivers: the ω×I_TEC surface sweep (Figure 6),
// the per-benchmark tables, the sensitivity/throttling studies, and the
// finite-difference probes of every solver derivative. Each is a set of
// independent steady-state solves, so one bounded worker pool covers
// them all.
//
// The engine's contract:
//
//   - Bounded: at most min(workers, n) goroutines run tasks, with
//     workers defaulting to runtime.GOMAXPROCS(0).
//   - Ordered: tasks are dispatched in index order and callers collect
//     results by index (out[i] = ...), so output order never depends on
//     scheduling.
//   - Deterministic errors: when tasks fail, the error of the
//     lowest-index failing task is returned — the same error a serial
//     loop would have stopped on — because dispatch is in index order and
//     the pool drains in-flight tasks before returning.
//   - Cancellable: a cancelled context stops dispatch; in-flight tasks
//     finish and the context's error is returned when no task failed.
//     When a task fails and the context is cancelled in the same drain,
//     the task error wins: a caller retrying on context.Canceled must
//     not lose the real failure underneath it.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n > 0 is taken as-is; zero
// and negative values select runtime.GOMAXPROCS(0). Callers use the
// convention 0 = "size to the hardware" and 1 = "serial reference path".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(0), fn(1), …, fn(n-1) on a pool of min(Workers(workers),
// n) goroutines and waits for completion. On failure it stops dispatching
// new tasks, drains the in-flight ones, and returns the error of the
// lowest-index task that failed (identical to the error a serial loop
// stops on, because tasks are dispatched in index order). With one worker
// it degenerates to exactly that serial loop, short-circuit included.
//
// fn must be safe for concurrent invocation when more than one worker is
// requested; writes to shared output slices are safe as long as each task
// writes only its own index.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if fn == nil {
		return errors.New("parallel: nil task function")
	}
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next index to dispatch, minus one
		stopped atomic.Bool  // set on first failure or cancellation

		mu       sync.Mutex
		firstIdx = n // lowest failing index seen so far
		firstErr error
	)
	next.Store(-1)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}

	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
