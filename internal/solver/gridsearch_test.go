package solver_test

import (
	"math"
	"testing"

	"oftec/internal/solver"
	"oftec/internal/solver/testutil"
)

func TestGridSearchFindsFeasibleOptimum(t *testing.T) {
	p := &solver.Problem{
		F: func(x []float64) float64 { return x[0] + x[1] },
		Cons: []solver.Func{
			func(x []float64) float64 { return 1 - x[0]*x[1] }, // x·y ≥ 1
		},
		Lower: []float64{0, 0},
		Upper: []float64{4, 4},
	}
	rep, err := testutil.GridSearch(p, 81, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible(1e-9) {
		t.Fatalf("grid search returned infeasible point %v", rep.X)
	}
	// True optimum is x=y=1, f=2; the grid is 0.05-pitched.
	if rep.F > 2.2 {
		t.Errorf("grid search f = %g at %v, want ≈ 2", rep.F, rep.X)
	}
	// One objective and one constraint evaluation per grid point.
	if rep.FuncEvals != 2*81*81 {
		t.Errorf("FuncEvals = %d, want %d", rep.FuncEvals, 2*81*81)
	}
}

func TestGridSearchReportsLeastInfeasible(t *testing.T) {
	p := &solver.Problem{
		F:     func(x []float64) float64 { return x[0] },
		Cons:  []solver.Func{func(x []float64) float64 { return 1 + x[0]*x[0] }}, // never ≤ 0
		Lower: []float64{-1, -1},
		Upper: []float64{1, 1},
	}
	rep, err := testutil.GridSearch(p, 11, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible(1e-9) {
		t.Fatal("problem is infeasible but grid search claims feasibility")
	}
	if math.Abs(rep.X[0]) > 1e-9 {
		t.Errorf("least-infeasible point should have x=0, got %v", rep.X)
	}
}

// TestGridSearchClampsNonFinite: NaN and +Inf objective values read as
// solver.Infeasible, as in the solvers, so a NaN at the first grid point
// cannot win every later comparison.
func TestGridSearchClampsNonFinite(t *testing.T) {
	p := &solver.Problem{
		F: func(x []float64) float64 {
			switch {
			case x[0] < 0.25:
				return math.NaN()
			case x[0] < 0.5:
				return math.Inf(1)
			}
			return x[0]
		},
		Lower: []float64{0},
		Upper: []float64{1},
	}
	rep, err := testutil.GridSearch(p, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.F != 0.5 || rep.X[0] != 0.5 {
		t.Errorf("grid search F = %g at %v, want 0.5 at [0.5]", rep.F, rep.X)
	}
}

func TestGridSearchRejectsOnePointGrid(t *testing.T) {
	p := &solver.Problem{F: func(x []float64) float64 { return 0 }, Lower: []float64{0}, Upper: []float64{1}}
	if _, err := testutil.GridSearch(p, 1, 0); err == nil {
		t.Error("GridSearch accepted 1-point grid")
	}
}
