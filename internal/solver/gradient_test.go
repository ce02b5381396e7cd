package solver

import (
	"math"
	"testing"
)

// This file covers the analytic-gradient path (Options.Grad/ConsGrad) and
// the two finite-difference defects it replaced: the sliver-slope poison
// on pinned variables and the cache-quantization aliasing on tiny spans.

// gradMethods are the solvers that consume gradients at all; the
// derivative-free methods ignore Options.Grad by design.
func gradMethods() []method {
	return []method{
		{"sqp", ActiveSetSQP},
		{"interior", InteriorPoint},
		{"trust", TrustRegion},
	}
}

// TestGradientAnalyticSolversMatchFD: with exact gradients installed, each
// gradient-based solver reaches the same constrained minimum as its
// finite-difference twin, records the analytic evaluations, and spends
// strictly fewer function evaluations.
func TestGradientAnalyticSolversMatchFD(t *testing.T) {
	x0 := []float64{3, 0}
	withGrad := Options{
		Grad: func(x []float64) []float64 { return []float64{2 * x[0], 2 * x[1]} },
		ConsGrad: []GradFunc{
			func(x []float64) []float64 { return []float64{-1, -1} },
		},
	}
	for _, m := range gradMethods() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			fdRep, err := m.run(conformanceProblem(), x0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.run(conformanceProblem(), x0, withGrad)
			if err != nil {
				t.Fatal(err)
			}
			if rep.GradEvals == 0 {
				t.Error("analytic run recorded no gradient evaluations")
			}
			if fdRep.GradEvals != 0 {
				t.Errorf("finite-difference run recorded %d gradient evaluations", fdRep.GradEvals)
			}
			// The minimizer of x²+y² s.t. 2-x-y ≤ 0 is (1,1).
			for i, want := range []float64{1, 1} {
				if math.Abs(rep.X[i]-want) > 5e-3 {
					t.Errorf("X[%d] = %g, want %g", i, rep.X[i], want)
				}
			}
			// Exact gradients may only improve the answer (the trust
			// region's FD run is noticeably less accurate here).
			if rep.F > fdRep.F+1e-6 {
				t.Errorf("analytic F = %g worse than finite-difference F = %g", rep.F, fdRep.F)
			}
			if rep.FuncEvals >= fdRep.FuncEvals {
				t.Errorf("analytic path spent %d function evaluations, finite differences %d — the 2n probes did not collapse",
					rep.FuncEvals, fdRep.FuncEvals)
			}
		})
	}
}

// TestGradientAnalyticDeclineFallsBackToFD: a GradFunc that declines every
// point (nil return — the adjoint contract for runaway operating points)
// must leave the solve bit-identical to the plain finite-difference run.
func TestGradientAnalyticDeclineFallsBackToFD(t *testing.T) {
	x0 := []float64{3, 0}
	declining := Options{
		Grad:     func(x []float64) []float64 { return nil },
		ConsGrad: []GradFunc{func(x []float64) []float64 { return nil }},
	}
	for _, m := range gradMethods() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			fdRep, err := m.run(conformanceProblem(), x0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.run(conformanceProblem(), x0, declining)
			if err != nil {
				t.Fatal(err)
			}
			if rep.GradEvals != 0 {
				t.Errorf("declined gradients still counted: GradEvals = %d", rep.GradEvals)
			}
			if rep.F != fdRep.F || rep.FuncEvals != fdRep.FuncEvals || rep.Iterations != fdRep.Iterations {
				t.Errorf("declining run diverged from FD run: F %g vs %g, evals %d vs %d, iters %d vs %d",
					rep.F, fdRep.F, rep.FuncEvals, fdRep.FuncEvals, rep.Iterations, fdRep.Iterations)
			}
			for i := range rep.X {
				if rep.X[i] != fdRep.X[i] {
					t.Errorf("X[%d] = %g, FD run %g", i, rep.X[i], fdRep.X[i])
				}
			}
		})
	}
}

// pinnedAndReduced builds the same constrained bowl twice: once with a
// third variable pinned by degenerate bounds at 5, once as the genuine
// two-variable problem. Minimum (3, -1), constraint 1-x0-x1 ≤ 0 violated
// at the origin start.
func pinnedAndReduced() (pinned, reduced *Problem) {
	f2 := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	pinned = &Problem{
		F:     func(x []float64) float64 { return f2(x) + (x[2]-5)*(x[2]-5) },
		Cons:  []Func{func(x []float64) float64 { return 1 - x[0] - x[1] }},
		Lower: []float64{-5, -5, 5},
		Upper: []float64{5, 5, 5},
	}
	reduced = &Problem{
		F:     f2,
		Cons:  []Func{func(x []float64) float64 { return 1 - x[0] - x[1] }},
		Lower: []float64{-5, -5},
		Upper: []float64{5, 5},
	}
	return pinned, reduced
}

// TestGradientPinnedVariableMatchesReducedProblem: the bug-fix contract
// for degenerate bounds. An SQP run with a pinned third variable must be
// the two-variable run in disguise — same minimizer, same objective, and
// the same function-evaluation count, because a frozen axis may not spend
// probes (the old code burned evaluations on it and, from infeasible
// iterates, fabricated a ±1e6 sliver slope that poisoned the BFGS model).
func TestGradientPinnedVariableMatchesReducedProblem(t *testing.T) {
	pinned, reduced := pinnedAndReduced()
	rp, err := ActiveSetSQP(pinned, []float64{0, 0, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ActiveSetSQP(reduced, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.X[2] != 5 {
		t.Errorf("pinned variable moved: X[2] = %g, want exactly 5", rp.X[2])
	}
	for i := 0; i < 2; i++ {
		if math.Abs(rp.X[i]-rr.X[i]) > 1e-9 {
			t.Errorf("X[%d] = %g, reduced problem found %g", i, rp.X[i], rr.X[i])
		}
	}
	if math.Abs(rp.F-rr.F) > 1e-9 {
		t.Errorf("F = %g, reduced problem %g", rp.F, rr.F)
	}
	if rp.FuncEvals != rr.FuncEvals {
		t.Errorf("pinned run spent %d evaluations, reduced problem %d — the frozen axis is burning probes",
			rp.FuncEvals, rr.FuncEvals)
	}
	if rp.Stopped != rr.Stopped {
		t.Errorf("pinned run stopped with %v, reduced problem with %v", rp.Stopped, rr.Stopped)
	}

	// The other gradient-based methods only promise the same answer, not
	// the same trajectory.
	for _, m := range []method{{"interior", InteriorPoint}, {"trust", TrustRegion}} {
		rep, err := m.run(pinned, []float64{0, 0, 5}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if rep.X[2] != 5 {
			t.Errorf("%s: pinned variable moved to %g", m.name, rep.X[2])
		}
		if math.Abs(rep.X[0]-3) > 1e-2 || math.Abs(rep.X[1]+1) > 1e-2 {
			t.Errorf("%s: X = %v, want (3, -1, 5)", m.name, rep.X)
		}
	}
}

// TestGradientPinnedInfeasiblePlateauEquivalence: the sliver-slope branch
// fires when every probe lands on the Infeasible sentinel. With a pinned
// variable the old code fired it on the frozen axis too, steering the
// descent direction along a coordinate that cannot move; the run must
// instead match the reduced problem escaping the same plateau.
func TestGradientPinnedInfeasiblePlateauEquivalence(t *testing.T) {
	plateau := func(x []float64) float64 {
		if x[0] < 1 {
			return Infeasible // stand-in for a thermal-runaway region
		}
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	pinned := &Problem{
		F:     func(x []float64) float64 { return plateau(x) },
		Lower: []float64{-5, -5, 5},
		Upper: []float64{5, 5, 5},
	}
	reduced := &Problem{
		F:     plateau,
		Lower: []float64{-5, -5},
		Upper: []float64{5, 5},
	}
	rp, err := ActiveSetSQP(pinned, []float64{0, 0, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ActiveSetSQP(reduced, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.F >= Infeasible {
		t.Fatalf("pinned run never escaped the plateau: F = %g at %v", rp.F, rp.X)
	}
	if rp.X[2] != 5 {
		t.Errorf("pinned variable moved: X[2] = %g", rp.X[2])
	}
	if rp.F != rr.F || rp.FuncEvals != rr.FuncEvals {
		t.Errorf("plateau escape diverged from reduced problem: F %g vs %g, evals %d vs %d",
			rp.F, rr.F, rp.FuncEvals, rr.FuncEvals)
	}
	for i := 0; i < 2; i++ {
		if rp.X[i] != rr.X[i] {
			t.Errorf("X[%d] = %g, reduced problem %g", i, rp.X[i], rr.X[i])
		}
	}
}

// TestGradientQuantizedEvalTinySpanFloor: an evaluation memo that rounds
// coordinates to a 1e-9 grid aliases finite-difference probes closer than
// the grid spacing; on a problem whose whole span is 1e-6 the scaled
// default step lands at 1e-11 and every difference quotient collapses to
// an exact zero, so the solvers declared convergence at their starting
// point. The unit box's gradMinStep floor keeps probes on distinct grid
// points.
func TestGradientQuantizedEvalTinySpanFloor(t *testing.T) {
	const target = 7e-7
	quantized := func(x []float64) float64 {
		q := math.Round(x[0]*1e9) / 1e9 // core's evaluation-cache grid
		d := (q - target) * 1e6
		return d * d
	}
	mk := func() *Problem {
		return &Problem{F: quantized, Lower: []float64{0}, Upper: []float64{1e-6}}
	}
	for _, m := range gradMethods() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			rep, err := m.run(mk(), []float64{1e-7}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The un-floored run converged at the start (X = 1e-7, F = 0.36).
			if math.Abs(rep.X[0]-target) > 1e-7 {
				t.Errorf("X = %g, want %g ± 1e-7 (stuck at start => probes aliased)", rep.X[0], target)
			}
			if rep.F > 0.05 {
				t.Errorf("F = %g, want ≈ 0", rep.F)
			}
		})
	}
}
