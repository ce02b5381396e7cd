package solver

import (
	"fmt"
	"math"
)

// NamedRunner pairs a Runner with a short display name so fallback
// diagnostics (and trace records) can say which stage produced a result.
type NamedRunner struct {
	Name string
	Run  Runner
}

// DefaultFallbackChain is the degradation ladder used when a solve does
// not converge to a feasible point: the paper's active-set SQP first,
// then the interior-point method (different globalization, tolerant of
// infeasible starts). When SQP's evaluations fail or turn NaN mid-solve,
// the interior-point stage restarted from SQP's best iterate lands within
// 1e-6 of the grid-search optimum (TestFallbackGracefulDegradation).
func DefaultFallbackChain() []NamedRunner {
	return []NamedRunner{
		{Name: "sqp", Run: ActiveSetSQP},
		{Name: "interior", Run: InteriorPoint},
	}
}

// Fallback runs the chain's stages in order until one converges to a
// feasible point (or early-stops, or is cancelled). Each stage starts
// from the best iterate found so far, so partial progress from a failed
// stage is not thrown away. The returned Report is the best result seen
// across all stages under the same feasibility-first ordering MultiStart
// uses, with FuncEvals and Iterations summed over every stage that ran.
//
// A stage that returns an error — or panics — is recorded and skipped;
// the chain only fails as a whole when every stage fails, in which case
// the first stage error is returned. This is the graceful-degradation
// path: an evaluation model that starts misbehaving mid-solve should
// downgrade the answer, not destroy the run.
func Fallback(chain []NamedRunner, p *Problem, x0 []float64, opts Options) (Report, error) {
	if len(chain) == 0 {
		return Report{}, fmt.Errorf("solver: Fallback needs at least one stage")
	}
	if err := p.Validate(); err != nil {
		return Report{}, err
	}

	feasTol := opts.tol()
	best := Report{F: math.Inf(1), MaxViolation: math.Inf(1)}
	haveBest := false
	var firstErr error
	var totalEvals, totalGrads, totalIters int

	start := append([]float64(nil), x0...)
	for _, stage := range chain {
		rep, err := runStage(stage, p, start, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("solver: fallback stage %q: %w", stage.Name, err)
			}
			continue
		}
		totalEvals += rep.FuncEvals
		totalGrads += rep.GradEvals
		totalIters += rep.Iterations
		if !haveBest || betterReport(rep, best, feasTol) {
			best = rep
			haveBest = true
		}
		if rep.Stopped == StopCancelled {
			// The context fired; later stages would return immediately
			// anyway. Report the launch as cancelled with the incumbent.
			best.Converged = false
			best.EarlyStopped = false
			best.Stopped = StopCancelled
			break
		}
		if rep.EarlyStopped || (rep.Converged && rep.Feasible(feasTol)) {
			break
		}
		// Seed the next stage with the incumbent: restarting a different
		// method from the best point found so far is what makes the chain
		// a refinement rather than independent attempts.
		if len(best.X) == len(start) {
			start = append([]float64(nil), best.X...)
		}
	}
	if !haveBest {
		if firstErr != nil {
			return Report{}, firstErr
		}
		return Report{}, fmt.Errorf("solver: fallback chain produced no result")
	}
	best.FuncEvals = totalEvals
	best.GradEvals = totalGrads
	best.Iterations = totalIters
	return best, nil
}

// runStage invokes one chain stage, converting a panic in the stage (a
// misbehaving evaluation model, an indexing bug in a custom Runner) into
// an ordinary error so the chain can degrade to the next method.
func runStage(stage NamedRunner, p *Problem, x0 []float64, opts Options) (rep Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = Report{}
			err = fmt.Errorf("stage panicked: %v", r)
		}
	}()
	return stage.Run(p, x0, opts)
}
