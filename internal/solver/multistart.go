package solver

import (
	"fmt"
	"math"
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

// MultiStart runs a solver from several starting points, in order, and
// returns the best feasible result (or the least-infeasible one when
// nothing is feasible). The paper notes its objectives have "minor
// non-convexities"; a small multistart turns the local SQP into a
// practical global method when extra robustness is wanted. FuncEvals and
// Iterations aggregate across all starts. Every start runs with opts, so
// Options.Workers sizes each start's finite-difference probes.
//
// The launch stops at the first start that early-stops, and on
// cancellation (Options.Ctx), which every underlying solve also honors.
// A cancelled launch reports the whole launch: best-so-far X/F, summed
// counters over the starts that ran, Converged=false,
// Stopped=StopCancelled.
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

	best := Report{F: math.Inf(1), MaxViolation: math.Inf(1)}
	var totalEvals, totalGrads, totalIters int
	feasTol := opts.tol()
	for i, x0 := range starts {
		if i > 0 && opts.cancelled() {
			break
		}
		rep, err := run(p, x0, opts)
		if err != nil {
			return Report{}, fmt.Errorf("solver: start %d: %w", i, err)
		}
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
