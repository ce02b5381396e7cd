package testutil

import (
	"fmt"
	"math"

	"oftec/internal/solver"
)

// GridSearch scans a uniform grid with pts points per dimension and
// returns the best feasible point (feasibility tolerance tol on the
// constraints), or the least-infeasible one when no grid point is
// feasible. Evaluations are clamped the way the solvers clamp them: NaN,
// +Inf and anything above solver.Infeasible read as solver.Infeasible.
// It is exponential in the dimension and exists as the ground-truth
// reference for the two-variable OFTEC problems.
func GridSearch(p *solver.Problem, pts int, tol float64) (solver.Report, error) {
	if err := p.Validate(); err != nil {
		return solver.Report{}, err
	}
	if pts < 2 {
		return solver.Report{}, fmt.Errorf("testutil: grid search needs at least 2 points per dimension, got %d", pts)
	}
	n := p.Dim()
	evals := 0
	eval := func(f solver.Func, x []float64) float64 {
		evals++
		v := f(x)
		switch {
		case math.IsNaN(v) || v > solver.Infeasible:
			return solver.Infeasible
		case math.IsInf(v, -1):
			return -solver.Infeasible
		}
		return v
	}

	best := solver.Report{F: math.Inf(1), MaxViolation: math.Inf(1)}
	idx := make([]int, n)
	x := make([]float64, n)
	for {
		for i := 0; i < n; i++ {
			x[i] = p.Lower[i] + (p.Upper[i]-p.Lower[i])*float64(idx[i])/float64(pts-1)
		}
		var viol float64
		for _, c := range p.Cons {
			if v := eval(c, x); v > viol {
				viol = v
			}
		}
		f := eval(p.F, x)
		better := false
		if viol <= tol && best.MaxViolation > tol {
			better = true // first feasible beats any infeasible
		} else if viol <= tol && best.MaxViolation <= tol {
			better = f < best.F
		} else if best.MaxViolation > tol {
			better = viol < best.MaxViolation // least-infeasible fallback
		}
		if better {
			best.F = f
			best.MaxViolation = viol
			best.X = append([]float64(nil), x...)
		}
		// Advance the odometer.
		k := 0
		for ; k < n; k++ {
			idx[k]++
			if idx[k] < pts {
				break
			}
			idx[k] = 0
		}
		if k == n {
			break
		}
	}
	best.Converged = true
	best.Stopped = solver.StopConverged
	best.Iterations = 1
	best.FuncEvals = evals
	return best, nil
}
