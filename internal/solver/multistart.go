package solver

import (
	"context"
	"fmt"
	"math"

	"oftec/internal/parallel"
)

// Runner is the common signature of the iterative solvers in this
// package (ActiveSetSQP, InteriorPoint, TrustRegion) and of the drivers
// composed from them.
type Runner func(p *Problem, x0 []float64, opts Options) (Report, error)

// betterReport reports whether rep beats best under the feasibility-first
// ordering shared by MultiStart and Fallback (testutil.GridSearch ranks
// its grid the same way): a feasible report beats any infeasible one,
// feasible reports compare on the objective, and infeasible ones on
// their violation.
func betterReport(rep, best Report, feasTol float64) bool {
	switch {
	case rep.Feasible(feasTol) && !best.Feasible(feasTol):
		return true
	case rep.Feasible(feasTol) == best.Feasible(feasTol) && rep.Feasible(feasTol):
		return rep.F < best.F
	case !best.Feasible(feasTol):
		return rep.MaxViolation < best.MaxViolation
	}
	return false
}

// MultiStart runs a solver from several starting points and returns the
// best feasible result (or the least-infeasible one when nothing is
// feasible). The paper notes its objectives have "minor non-convexities";
// a small multistart turns the local SQP into a practical global method
// when extra robustness is wanted. FuncEvals and Iterations aggregate
// across all starts.
//
// With Options.Workers outside {0, 1} the starts are launched on a
// bounded worker pool (see Options.Workers for the thread-safety
// contract), each start solving with Workers = 1 so the fan-out stays
// one level deep. The selection over completed reports is replayed serially
// in start order, so the returned Report is identical to the serial
// launch — including the early-stop short circuit, whose skipped starts
// are solved but then ignored.
//
// Cancellation (Options.Ctx) is honored by every underlying solve; the
// aggregate then reports the launch as a whole: best-so-far X/F, summed
// counters over whatever ran, Converged=false, Stopped=StopCancelled.
// Under cancellation the serial launch stops issuing solves while the
// parallel one lets the remaining starts return their (cheap) cancelled
// stubs, so the two paths may differ in the aggregate counters — never
// in the incumbent's provenance guarantees.
func MultiStart(run Runner, p *Problem, starts [][]float64, opts Options) (Report, error) {
	if err := p.Validate(); err != nil {
		return Report{}, err
	}
	if len(starts) == 0 {
		return Report{}, fmt.Errorf("solver: MultiStart needs at least one starting point")
	}
	n := p.Dim()
	for i, x0 := range starts {
		if len(x0) != n {
			return Report{}, fmt.Errorf("solver: start %d has dimension %d, want %d", i, len(x0), n)
		}
	}

	workers := opts.workers()
	reps := make([]Report, len(starts))
	if workers == 1 {
		// Serial launch: stop issuing solves at the first early stop or on
		// cancellation. reps is truncated so unstarted zero Reports (which
		// would look "feasible at F=0") never reach the reduction below.
		launched := 0
		for i, x0 := range starts {
			if i > 0 && opts.cancelled() {
				break
			}
			rep, err := run(p, x0, opts)
			if err != nil {
				return Report{}, fmt.Errorf("solver: start %d: %w", i, err)
			}
			reps[i] = rep
			launched = i + 1
			if rep.EarlyStopped {
				break
			}
		}
		reps = reps[:launched]
	} else {
		// One level of fan-out: each start probes its derivatives serially.
		inner := opts
		inner.Workers = 1
		err := parallel.ForEach(context.Background(), len(starts), workers, func(i int) error {
			rep, err := run(p, starts[i], inner)
			if err != nil {
				return fmt.Errorf("solver: start %d: %w", i, err)
			}
			reps[i] = rep
			return nil
		})
		if err != nil {
			return Report{}, err
		}
	}

	// Deterministic reduction in start order, regardless of how the
	// reports were produced.
	best := Report{F: math.Inf(1), MaxViolation: math.Inf(1)}
	var totalEvals, totalGrads, totalIters int
	feasTol := opts.tol()
	for _, rep := range reps {
		totalEvals += rep.FuncEvals
		totalGrads += rep.GradEvals
		totalIters += rep.Iterations

		if betterReport(rep, best, feasTol) {
			best = rep
		}
		if rep.EarlyStopped {
			// Launch-wide verdict: the launch ended on the early-stop
			// predicate, whatever the incumbent's own reason was.
			best.EarlyStopped = true
			best.Converged = false
			best.Stopped = StopEarlyStopped
			break
		}
	}
	best.FuncEvals = totalEvals
	best.GradEvals = totalGrads
	best.Iterations = totalIters
	if opts.cancelled() {
		// Launch-wide verdict: even if the incumbent start converged before
		// the context fired, the launch as a whole was cut short.
		best.Converged = false
		best.EarlyStopped = false
		best.Stopped = StopCancelled
	}
	return best, nil
}

// CornerStarts returns the canonical multistart set for a box-bounded
// problem: the center plus the 2ⁿ corners pulled slightly inward (so
// finite-difference probes stay inside the box). It is exponential in the
// dimension and intended for the small problems this repository solves.
func CornerStarts(p *Problem, inset float64) ([][]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if inset < 0 || inset >= 0.5 {
		return nil, fmt.Errorf("solver: corner inset %g outside [0, 0.5)", inset)
	}
	n := p.Dim()
	if n > 8 {
		return nil, fmt.Errorf("solver: CornerStarts limited to 8 dimensions, got %d", n)
	}
	center := make([]float64, n)
	for i := 0; i < n; i++ {
		center[i] = (p.Lower[i] + p.Upper[i]) / 2
	}
	starts := [][]float64{center}
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			span := p.Upper[i] - p.Lower[i]
			if mask&(1<<i) != 0 {
				x[i] = p.Upper[i] - inset*span
			} else {
				x[i] = p.Lower[i] + inset*span
			}
		}
		starts = append(starts, x)
	}
	return starts, nil
}
