package solver

import (
	"math"
	"testing"
)

// evalRecord is one evaluation a solve made: the point, and the incumbent
// its functions were anchored on (see Problem.Near).
type evalRecord struct {
	anchor, x []float64
}

// evalLog records, in order, every evaluation a serial solve makes and
// every incumbent it anchors on. The unit box of a problem on [0, 1]ⁿ is
// the problem itself, so the points it records are the solver's own.
type evalLog struct {
	anchors [][]float64
	evals   []evalRecord
}

// watch returns p with a Near that logs through l and answers with p's
// own functions.
func (l *evalLog) watch(p *Problem) *Problem {
	q := *p
	q.Near = func(x, up []float64) (Func, []Func) {
		x = append([]float64(nil), x...)
		if up == nil {
			l.anchors = append(l.anchors, x)
		}
		logged := func(f Func) Func {
			return func(y []float64) float64 {
				l.evals = append(l.evals, evalRecord{anchor: x, x: append([]float64(nil), y...)})
				return f(y)
			}
		}
		cons := make([]Func, len(p.Cons))
		for i, c := range p.Cons {
			cons[i] = logged(c)
		}
		return logged(p.F), cons
	}
	return &q
}

// dist is the ∞-norm distance between two points.
func dist(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// isProbe reports whether e is a finite-difference probe of its anchor:
// a point one unit-box step fdRelStep away along a single axis.
func (e evalRecord) isProbe() bool {
	moved := 0
	for i := range e.x {
		if e.x[i] != e.anchor[i] {
			moved++
		}
	}
	d := dist(e.x, e.anchor)
	return moved == 1 && math.Abs(d-fdRelStep) < 1e-3*fdRelStep
}

// belowTol returns the evaluations at a point other than their incumbent
// but less than tol from it, line-search trials on steps below tol, made
// at an incumbent the filter admits (nil admits every incumbent).
func (l *evalLog) belowTol(tol float64, at func(anchor []float64) bool) int {
	n := 0
	for _, e := range l.evals {
		if d := dist(e.x, e.anchor); d > 0 && d < tol && (at == nil || at(e.anchor)) {
			n++
		}
	}
	return n
}

// derivatives counts the incumbents that had a derivative taken at them.
func (l *evalLog) derivatives() int {
	n := 0
	for _, a := range l.anchors {
		for _, e := range l.evals {
			if e.isProbe() && dist(e.anchor, a) == 0 {
				n++
				break
			}
		}
	}
	return n
}

// hashNoise is a deterministic pseudo-random value in [−1, 1) drawn from
// the bits of x and a salt, the same every time x is evaluated.
func hashNoise(x []float64, salt uint64) float64 {
	h := salt
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		h ^= h >> 29
	}
	return float64(h>>11)/(1<<52) - 1
}

// noisyProblem is a smooth problem with an active constraint, shaped like
// Algorithm 1's Optimization 1 (a power-like objective near 10, a
// temperature-like constraint near 363 K), whose F and constraint carry a
// deterministic relative noise of 1e-9, as evaluations that solve to a CG
// tolerance of 1e-9 do. Its optimum lies on x₀ + x₁ = 1.155 inside the
// unit box.
func noisyProblem() *Problem {
	return &Problem{
		F: func(x []float64) float64 {
			dx, dy := x[0]-0.8, x[1]-0.7
			f := 10 + dx*dx + 2*dy*dy
			return f * (1 + 1e-9*hashNoise(x, 0x9e3779b97f4a7c15))
		},
		Cons: []Func{func(x []float64) float64 {
			temp := 340 + 20*(x[0]+x[1])
			return temp*(1+1e-9*hashNoise(x, 0x632be59bd9b4e019)) - 363.1
		}},
		Lower: []float64{0, 0},
		Upper: []float64{1, 1},
	}
}

// TestSQPStopBelowTolOnNoise: on a smooth constrained problem whose F and
// constraint carry 1e-9 relative noise, SQP makes no line-search trial on
// a step α‖d‖∞ below Tol from an incumbent within Tol of feasibility,
// converges (StopConverged) at its incumbent, the last iterate it
// accepted, and takes no derivative that no QP step then uses: one per
// iteration, the start's included, so none at the iterate it returns
// after its last QP. Backtracking below Tol near the optimum only samples
// the noise, and an accepted trial that short ends the run less than Tol
// away, so the answer stays within Tol of one that tried. From most of
// these starts a search that tries those trials accepts one on noise and
// differentiates it before converging there; from (0.5, 0.2) the last
// incumbent violates the constraint by 3.4e-6, so its search tries, and
// accepts, a step below Tol, and converges there underived.
func TestSQPStopBelowTolOnNoise(t *testing.T) {
	const tol = 1e-6
	settled := func(anchor []float64) bool { return noisyProblem().Cons[0](anchor) <= tol }
	for _, start := range [][]float64{{0.5, 0.5}, {0.2, 0.2}, {0.9, 0.1}, {0.1, 0.9}, {0.3, 0.6}, {0.6, 0.3}, {0.4, 0.4}, {0.5, 0.2}} {
		var l evalLog
		p := l.watch(noisyProblem())
		var trace []TraceRecord
		rep, err := ActiveSetSQP(p, start, Options{Trace: func(r TraceRecord) { trace = append(trace, r) }})
		if err != nil {
			t.Fatal(err)
		}
		if n := l.belowTol(tol, settled); n != 0 {
			t.Errorf("start %v: %d evaluations on steps below Tol from a feasible incumbent", start, n)
		}
		if rep.Stopped != StopConverged {
			t.Fatalf("start %v: stopped %s, want converged", start, rep.Stopped)
		}
		last := l.anchors[len(l.anchors)-1]
		if dist(rep.X, last) != 0 || len(trace) == 0 || dist(trace[len(trace)-1].X, last) != 0 {
			t.Errorf("start %v: returned X = %v, last incumbent %v: not the last accepted iterate", start, rep.X, last)
		}
		if d := l.derivatives(); d != rep.Iterations {
			t.Errorf("start %v: %d derivatives for %d iterations: one was taken that no QP step used", start, d, rep.Iterations)
		}
		if rep.MaxViolation > tol || math.Abs(rep.X[0]+rep.X[1]-1.155) > 1e-4 {
			t.Errorf("start %v: X = %v (violation %g): not the constrained optimum on x₀ + x₁ = 1.155", start, rep.X, rep.MaxViolation)
		}
	}
}

// ascentProblem is a problem whose analytic gradient points uphill, so no
// step along SQP's direction decreases the merit and the line search
// backtracks until something stops it; its one constraint is the constant
// c.
func ascentProblem(c float64) (*Problem, Options) {
	p := &Problem{
		F: func(x []float64) float64 {
			dx, dy := x[0]-0.3, x[1]-0.6
			return dx*dx + dy*dy
		},
		Cons:  []Func{func([]float64) float64 { return c }},
		Lower: []float64{0, 0},
		Upper: []float64{1, 1},
	}
	opts := Options{
		MaxIter: 5,
		Grad: func(x []float64) []float64 {
			return []float64{-2 * (x[0] - 0.3), -2 * (x[1] - 0.6)}
		},
		ConsGrad: []GradFunc{func([]float64) []float64 { return []float64{0, 0} }},
	}
	return p, opts
}

// TestSQPStopBacktrackingOnlyWhenFeasible: the line search stops below
// Tol only at an incumbent within Tol of feasibility. Along an ascent
// direction every trial fails, so the search runs to exhaustion and the
// run converges at its start either way: from a feasible start it stops
// at its first step below Tol, while from a start that violates its
// constraint by more than Tol it keeps backtracking below Tol, as
// before, down to its smallest step.
func TestSQPStopBacktrackingOnlyWhenFeasible(t *testing.T) {
	const tol = 1e-6
	start := []float64{0.7, 0.2}
	for _, tc := range []struct {
		name       string
		c          float64
		backtracks bool
	}{
		{"feasible", -1, false},
		{"within Tol", tol / 2, false},
		{"infeasible", 0.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l evalLog
			p, opts := ascentProblem(tc.c)
			rep, err := ActiveSetSQP(l.watch(p), start, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stopped != StopConverged || dist(rep.X, start) != 0 || rep.Iterations != 1 {
				t.Fatalf("stopped %s at %v after %d iterations, want converged at the start after 1", rep.Stopped, rep.X, rep.Iterations)
			}
			var trials, smallest int
			for _, e := range l.evals {
				if d := dist(e.x, e.anchor); d > 0 {
					trials++
					if d < 1e-9 {
						smallest++
					}
				}
			}
			below := l.belowTol(tol, nil)
			t.Logf("%d trial evaluations, %d below Tol", trials, below)
			if tc.backtracks && (below == 0 || smallest == 0) {
				t.Errorf("%d trial evaluations below Tol, %d below 1e-9: the infeasible incumbent's search stopped early", below, smallest)
			}
			if !tc.backtracks && below != 0 {
				t.Errorf("%d trial evaluations below Tol at an incumbent within Tol of feasibility", below)
			}
		})
	}
}

// TestStopWhenSpendsNoDerivative: trust region and interior point test
// Options.StopWhen at an accepted iterate before they differentiate it,
// so an early stop at the first accepted iterate spends no derivative
// there: every probe the run makes is around its start.
func TestStopWhenSpendsNoDerivative(t *testing.T) {
	for _, m := range []method{{"trust", TrustRegion}, {"interior", InteriorPoint}} {
		t.Run(m.name, func(t *testing.T) {
			var l evalLog
			p := l.watch(&Problem{F: bowl(0.2, 0.3), Lower: []float64{0, 0}, Upper: []float64{1, 1}})
			start := []float64{0.9, 0.9}
			rep, err := m.run(p, start, Options{StopWhen: func([]float64, float64) bool { return true }})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stopped != StopEarlyStopped || dist(rep.X, start) == 0 {
				t.Fatalf("stopped %s at %v, want early-stopped past the start", rep.Stopped, rep.X)
			}
			for _, e := range l.evals {
				if e.isProbe() && dist(e.anchor, start) != 0 {
					t.Fatalf("probe %v around %v, an iterate the run stopped at", e.x, e.anchor)
				}
			}
			if d := l.derivatives(); d != 1 {
				t.Errorf("%d derivatives, want 1 (the start's)", d)
			}
		})
	}
}
