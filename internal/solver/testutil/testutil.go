// Package testutil holds the optimizer layer's test instruments. Fault
// wraps a solver.Problem so it starts misbehaving mid-solve (a diverging
// thermal simulation, a NaN from a singular factorization, a wedged
// external process), to test that the solvers degrade gracefully; the
// wrappers are safe for concurrent use, matching the thread-safety
// contract MultiStart imposes on evaluators. GridSearch is the dense-grid
// reference optimum the solvers' answers are checked against.
package testutil

import (
	"math"
	"sync"
	"sync/atomic"

	"oftec/internal/solver"
)

// FaultMode selects how a wrapped evaluation misbehaves once the fault
// triggers.
type FaultMode int

const (
	// FaultFail makes every evaluation return solver.Infeasible, as if
	// the simulation diverged at every operating point.
	FaultFail FaultMode = iota
	// FaultNaN makes every evaluation return NaN, the classic poison
	// value from a failed linear solve.
	FaultNaN
	// FaultHang makes every evaluation block until Release is called.
	// Solvers treat evaluations as black boxes, so a hang is only
	// survivable when the caller bounds the solve from outside (a
	// timeout context plus a goroutine, as the tests do).
	FaultHang
)

// Fault wraps a solver.Problem so that, after the first N evaluations
// (objective and constraint calls counted together), every subsequent
// evaluation misbehaves according to the configured mode. N ≤ 0 faults
// from the very first call.
type Fault struct {
	mode  FaultMode
	after int64
	calls atomic.Int64

	releaseOnce sync.Once
	release     chan struct{}
}

// NewFault wraps p, returning the faulty problem and the Fault handle
// controlling it. The wrapped problem shares p's bounds; its objective
// and constraints delegate to p's until the fault triggers.
func NewFault(p *solver.Problem, mode FaultMode, after int) (*solver.Problem, *Fault) {
	f := &Fault{
		mode:    mode,
		after:   int64(after),
		release: make(chan struct{}),
	}
	wrapped := &solver.Problem{
		F:     f.wrap(p.F),
		Lower: append([]float64(nil), p.Lower...),
		Upper: append([]float64(nil), p.Upper...),
	}
	for _, c := range p.Cons {
		wrapped.Cons = append(wrapped.Cons, f.wrap(c))
	}
	return wrapped, f
}

// Calls reports how many evaluations have been issued against the
// wrapped problem, including faulted ones.
func (f *Fault) Calls() int { return int(f.calls.Load()) }

// Tripped reports whether the fault has triggered.
func (f *Fault) Tripped() bool { return f.calls.Load() > f.after }

// Release unblocks every evaluation currently (and subsequently) parked
// by FaultHang. It is idempotent and a no-op for the other modes.
func (f *Fault) Release() {
	f.releaseOnce.Do(func() { close(f.release) })
}

func (f *Fault) wrap(fn solver.Func) solver.Func {
	return func(x []float64) float64 {
		if f.calls.Add(1) <= f.after {
			return fn(x)
		}
		switch f.mode {
		case FaultNaN:
			return math.NaN()
		case FaultHang:
			<-f.release
			return solver.Infeasible
		default:
			return solver.Infeasible
		}
	}
}
