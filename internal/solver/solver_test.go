package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadratic bowl centered at (cx, cy).
func bowl(cx, cy float64) Func {
	return func(x []float64) float64 {
		dx, dy := x[0]-cx, x[1]-cy
		return dx*dx + 3*dy*dy
	}
}

type method struct {
	name string
	run  func(p *Problem, x0 []float64, opts Options) (Report, error)
}

func methods() []method {
	return []method{
		{"sqp", ActiveSetSQP},
		{"interior", InteriorPoint},
		{"trust", TrustRegion},
	}
}

func TestUnconstrainedBowl(t *testing.T) {
	p := &Problem{
		F:     bowl(1.5, -0.5),
		Lower: []float64{-5, -5},
		Upper: []float64{5, 5},
	}
	for _, m := range methods() {
		rep, err := m.run(p, []float64{4, 4}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if math.Abs(rep.X[0]-1.5) > 1e-3 || math.Abs(rep.X[1]+0.5) > 1e-3 {
			t.Errorf("%s: X = %v, want (1.5, -0.5)", m.name, rep.X)
		}
		if rep.FuncEvals == 0 {
			t.Errorf("%s: zero function evaluations reported", m.name)
		}
	}
}

func TestBoundConstrainedOptimumAtEdge(t *testing.T) {
	// Minimum of the bowl is outside the box; solution must sit on the
	// boundary (0.5, 0.25).
	p := &Problem{
		F:     bowl(2, 1),
		Lower: []float64{-0.5, -0.25},
		Upper: []float64{0.5, 0.25},
	}
	for _, m := range methods() {
		rep, err := m.run(p, []float64{0, 0}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if math.Abs(rep.X[0]-0.5) > 1e-3 || math.Abs(rep.X[1]-0.25) > 1e-3 {
			t.Errorf("%s: X = %v, want (0.5, 0.25)", m.name, rep.X)
		}
	}
}

func TestInequalityConstrainedQuadratic(t *testing.T) {
	// min x² + y² s.t. x + y ≥ 2 → optimum (1, 1), f = 2.
	p := &Problem{
		F: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		Cons: []Func{
			func(x []float64) float64 { return 2 - x[0] - x[1] },
		},
		Lower: []float64{-5, -5},
		Upper: []float64{5, 5},
	}
	for _, m := range methods() {
		rep, err := m.run(p, []float64{3, 0}, Options{MaxIter: 400})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !rep.Feasible(1e-3) {
			t.Errorf("%s: final violation %g", m.name, rep.MaxViolation)
		}
		// The trust-region comparator is a penalty method; it reaches the
		// constraint surface but may stop slightly off the exact optimum
		// (the paper likewise found it inferior to the active-set SQP).
		posTol, objTol := 5e-3, 2.001
		if m.name == "trust" {
			posTol, objTol = 0.2, 2.1
		}
		if math.Abs(rep.X[0]-1) > posTol || math.Abs(rep.X[1]-1) > posTol {
			t.Errorf("%s: X = %v, want (1, 1)±%g", m.name, rep.X, posTol)
		}
		if f := rep.X[0]*rep.X[0] + rep.X[1]*rep.X[1]; f > objTol {
			t.Errorf("%s: objective %g exceeds %g", m.name, f, objTol)
		}
	}
}

func TestInfeasibleStartRecovered(t *testing.T) {
	// Start violates the constraint badly; solvers must walk into the
	// feasible region.
	p := &Problem{
		F: func(x []float64) float64 { return (x[0] - 4) * (x[0] - 4) },
		Cons: []Func{
			func(x []float64) float64 { return x[0] - 1 }, // x ≤ 1
		},
		Lower: []float64{-10, -10},
		Upper: []float64{10, 10},
	}
	for _, m := range methods() {
		rep, err := m.run(p, []float64{8, 0}, Options{MaxIter: 400})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !rep.Feasible(1e-2) {
			t.Errorf("%s: final violation %g at %v", m.name, rep.MaxViolation, rep.X)
		}
		if math.Abs(rep.X[0]-1) > 2e-2 {
			t.Errorf("%s: X = %v, want x0 = 1", m.name, rep.X)
		}
	}
}

// Rosenbrock in a box: a classic nonconvex valley. Gradient methods must
// make substantial progress; we assert near-optimality for SQP.
func TestRosenbrockSQP(t *testing.T) {
	p := &Problem{
		F: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
		Lower: []float64{-2, -2},
		Upper: []float64{2, 2},
	}
	rep, err := ActiveSetSQP(p, []float64{-1.2, 1}, Options{MaxIter: 2000, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F > 1e-3 {
		t.Errorf("SQP on Rosenbrock: f = %g at %v, want < 1e-3", rep.F, rep.X)
	}
}

func TestRunawayRegionAvoided(t *testing.T) {
	// A synthetic objective with an "infinite" wall at x < 1 mimicking the
	// thermal runaway region of Figure 6(a); solvers must settle in the
	// finite region.
	f := func(x []float64) float64 {
		if x[0] < 1 {
			return math.Inf(1)
		}
		return (x[0]-3)*(x[0]-3) + x[1]*x[1]
	}
	p := &Problem{F: f, Lower: []float64{0, -2}, Upper: []float64{10, 2}}
	for _, m := range methods() {
		rep, err := m.run(p, []float64{5, 1}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if rep.F >= Infeasible {
			t.Errorf("%s: stuck at infeasible objective", m.name)
			continue
		}
		if math.Abs(rep.X[0]-3) > 0.05 || math.Abs(rep.X[1]) > 0.05 {
			t.Errorf("%s: X = %v, want (3, 0)", m.name, rep.X)
		}
	}
}

func TestStopWhenEarlyExit(t *testing.T) {
	stopped := false
	p := &Problem{
		F:     bowl(0, 0),
		Lower: []float64{-5, -5},
		Upper: []float64{5, 5},
	}
	rep, err := ActiveSetSQP(p, []float64{4, 4}, Options{
		StopWhen: func(x []float64, f float64) bool {
			if f < 10 {
				stopped = true
				return true
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped || !rep.EarlyStopped {
		t.Errorf("StopWhen did not fire: stopped=%v report=%+v", stopped, rep)
	}
	if rep.F >= 16 { // must have improved from f(4,4)=64 to below the target
		t.Errorf("early stop left f = %g, want < 16", rep.F)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"no objective", &Problem{Lower: []float64{0}, Upper: []float64{1}}},
		{"no variables", &Problem{F: func(x []float64) float64 { return 0 }}},
		{"mismatched bounds", &Problem{F: func(x []float64) float64 { return 0 }, Lower: []float64{0, 0}, Upper: []float64{1}}},
		{"empty domain", &Problem{F: func(x []float64) float64 { return 0 }, Lower: []float64{2}, Upper: []float64{1}}},
		{"infinite bound", &Problem{F: func(x []float64) float64 { return 0 }, Lower: []float64{math.Inf(-1)}, Upper: []float64{1}}},
	}
	for _, c := range cases {
		if _, err := ActiveSetSQP(c.p, []float64{0, 0}, Options{}); err == nil {
			t.Errorf("%s: SQP accepted invalid problem", c.name)
		}
	}
}

func TestQPSubproblemExactness(t *testing.T) {
	// min ½dᵀId + gᵀd s.t. d₀ ≤ 0.5 with g = (-2, 0): unconstrained min is
	// (2, 0); the constraint clips to (0.5, 0) with λ = 1.5.
	q := &qpProblem{
		b: identity(2),
		g: []float64{-2, 0},
		a: [][]float64{{1, 0}},
		c: []float64{0.5},
	}
	d, lam, err := q.solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-0.5) > 1e-10 || math.Abs(d[1]) > 1e-10 {
		t.Errorf("d = %v, want (0.5, 0)", d)
	}
	if math.Abs(lam[0]-1.5) > 1e-10 {
		t.Errorf("lambda = %v, want 1.5", lam)
	}
}

func TestQPUnconstrainedInterior(t *testing.T) {
	q := &qpProblem{
		b: [][]float64{{2, 0}, {0, 4}},
		g: []float64{-2, -4},
		a: [][]float64{{1, 1}},
		c: []float64{100}, // inactive
	}
	d, lam, err := q.solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-1) > 1e-10 || math.Abs(d[1]-1) > 1e-10 {
		t.Errorf("d = %v, want (1, 1)", d)
	}
	if lam[0] != 0 {
		t.Errorf("inactive constraint has multiplier %g", lam[0])
	}
}

// Property: the QP subproblem solver satisfies the KKT conditions —
// stationarity (B·d + g + Aᵀλ = 0), primal feasibility, dual feasibility
// (λ ≥ 0), and complementary slackness (λᵢ·(aᵢᵀd − cᵢ) = 0).
func TestQPKKTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2) // 2-3 variables
		m := 1 + rng.Intn(4) // 1-4 constraint rows

		// SPD B = MᵀM + I.
		mrand := make([][]float64, n)
		for i := range mrand {
			mrand[i] = make([]float64, n)
			for j := range mrand[i] {
				mrand[i][j] = rng.NormFloat64()
			}
		}
		b := identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					b[i][j] += mrand[k][i] * mrand[k][j]
				}
			}
		}
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64() * 3
		}
		a := make([][]float64, m)
		c := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			c[i] = rng.Float64() * 2 // keeps d=0 feasible
		}

		q := &qpProblem{b: b, g: g, a: a, c: c}
		d, lam, err := q.solve()
		if err != nil {
			return false
		}
		const tol = 1e-7
		// Stationarity.
		for i := 0; i < n; i++ {
			s := g[i]
			for j := 0; j < n; j++ {
				s += b[i][j] * d[j]
			}
			for k := 0; k < m; k++ {
				s += lam[k] * a[k][i]
			}
			if math.Abs(s) > tol {
				return false
			}
		}
		for k := 0; k < m; k++ {
			slack := c[k] - dot(a[k], d)
			if slack < -tol { // primal feasibility
				return false
			}
			if lam[k] < -tol { // dual feasibility
				return false
			}
			if math.Abs(lam[k]*slack) > tol { // complementary slackness
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
