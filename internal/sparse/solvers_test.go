package sparse

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// laplacian1D builds the standard tridiagonal SPD matrix with Dirichlet
// boundary coupling, a faithful miniature of the thermal conduction matrix.
func laplacian1D(n int, g float64) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddDiag(i, 2*g)
		if i > 0 {
			b.Add(i, i-1, -g)
		}
		if i < n-1 {
			b.Add(i, i+1, -g)
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

func randomSPD(rng *rand.Rand, n int) *CSR {
	// A = B·Bᵀ + n·I computed densely, then assembled.
	bm := make([][]float64, n)
	for i := range bm {
		bm[i] = make([]float64, n)
		for j := range bm[i] {
			bm[i][j] = rng.NormFloat64()
		}
	}
	bld := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += bm[i][k] * bm[j][k]
			}
			if i == j {
				s += float64(n)
			}
			bld.Add(i, j, s)
		}
	}
	m, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return m
}

func checkSolution(t *testing.T, name string, a *CSR, x, b []float64, tol float64) {
	t.Helper()
	r := make([]float64, a.N())
	res := a.Residual(r, x, b)
	if res > tol*(1+NormInf(b)) {
		t.Errorf("%s: residual %g exceeds %g", name, res, tol*(1+NormInf(b)))
	}
}

// icOf is the IC(0) factorization of a, which must factor.
func icOf(t testing.TB, a *CSR) *ICPreconditioner {
	t.Helper()
	ic, err := NewICPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

func TestCGOnLaplacian(t *testing.T) {
	for _, a := range []*CSR{laplacian1D(1, 3.5), laplacian1D(2, 3.5), laplacian1D(500, 3.5), laplacian2D(10, 3.5), laplacian2D(30, 1.2)} {
		n := a.N()
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		x, st, err := CGPrecond(a, b, icOf(t, a), SolveOptions{})
		if err != nil {
			t.Fatalf("n=%d: CGPrecond: %v", n, err)
		}
		if st.Iterations == 0 && NormInf(b) > 0 {
			t.Errorf("n=%d: CGPrecond reported zero iterations", n)
		}
		checkSolution(t, "CGPrecond", a, x, b, 1e-8)
	}
}

// TestCGZeroRHS: a zero right-hand side returns the start unchanged, zero
// from a cold start, with zero Stats and no iteration.
func TestCGZeroRHS(t *testing.T) {
	a := laplacian2D(4, 1)
	ic := icOf(t, a)
	for _, x0 := range [][]float64{nil, {1, -2, 3, 0.5, 7, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 4}} {
		x, st, err := CGPrecond(a, make([]float64, a.N()), ic, SolveOptions{X0: x0})
		if err != nil || st != (Stats{}) {
			t.Fatalf("start %v: st=%+v err=%v", x0, st, err)
		}
		want := x0
		if want == nil {
			want = make([]float64, a.N())
		}
		if !reflect.DeepEqual(x, want) {
			t.Errorf("zero rhs from start %v returned %v", x0, x)
		}
	}
}

// TestCGWarmStart: started from its own solution, CG stops after one
// iteration, far sooner than from zero.
func TestCGWarmStart(t *testing.T) {
	a := laplacian2D(12, 2)
	ic := icOf(t, a)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x1, st1, err := CGPrecond(a, b, ic, SolveOptions{})
	if err != nil {
		t.Fatalf("cold CGPrecond: %v", err)
	}
	_, st2, err := CGPrecond(a, b, ic, SolveOptions{X0: x1})
	if err != nil {
		t.Fatalf("warm CGPrecond: %v", err)
	}
	if st2.Iterations != 1 || st1.Iterations <= 1 {
		t.Errorf("warm start took %d iterations, cold start %d; want 1 and more", st2.Iterations, st1.Iterations)
	}
}

func TestCGRejectsDimensionMismatch(t *testing.T) {
	a := laplacian1D(4, 1)
	for _, ic := range []*ICPreconditioner{icOf(t, a), nil} {
		if _, _, err := CGPrecond(a, make([]float64, 3), ic, SolveOptions{}); err == nil || errors.Is(err, ErrNoConvergence) {
			t.Fatalf("mismatched rhs (factorization %t): err = %v, want a dimension error", ic != nil, err)
		}
	}
}

func TestLUSolveAndDet(t *testing.T) {
	a := [][]float64{
		{4, 2, 0},
		{2, 5, 1},
		{0, 1, 3},
	}
	f, err := NewLU(a)
	if err != nil {
		t.Fatalf("NewLU: %v", err)
	}
	// det by cofactor: 4*(15-1) - 2*(6-0) = 56-12 = 44. Row exchanges
	// only flip its sign, so U's diagonal multiplies out to ±44.
	det := 1.0
	for i := range a {
		det *= f.lu[i][i]
	}
	if math.Abs(math.Abs(det)-44) > 1e-10 {
		t.Errorf("|det U| = %g, want 44", math.Abs(det))
	}
	b := []float64{2, -1, 7}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range a {
		var s float64
		for j := range a[i] {
			s += a[i][j] * x[j]
		}
		if math.Abs(s-b[i]) > 1e-10 {
			t.Errorf("row %d: Ax = %g, want %g", i, s, b[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	_, err := NewLU([][]float64{{1, 2}, {2, 4}})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("NewLU on singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero leading pivot requires row exchange.
	a := [][]float64{{0, 1}, {1, 0}}
	f, err := NewLU(a)
	if err != nil {
		t.Fatalf("NewLU: %v", err)
	}
	x, err := f.Solve([]float64{3, 5})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("Solve = %v, want [5 3]", x)
	}
}

func TestCGPrecondAgreesWithLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(20)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xCG, _, err := CGPrecond(a, b, icOf(t, a), SolveOptions{})
		if err != nil {
			t.Fatalf("CGPrecond: %v", err)
		}
		f, err := NewLU(a.Dense())
		if err != nil {
			t.Fatalf("NewLU: %v", err)
		}
		xLU, err := f.Solve(b)
		if err != nil {
			t.Fatalf("LU Solve: %v", err)
		}
		for i := range xCG {
			if math.Abs(xCG[i]-xLU[i]) > 1e-6*(1+math.Abs(xLU[i])) {
				t.Fatalf("trial %d: xCG[%d]=%g differs from xLU=%g", trial, i, xCG[i], xLU[i])
			}
		}
	}
}

// TestCGPrecondNegativeCurvature: one strongly negative diagonal makes
// the matrix indefinite, as runaway does to the thermal systems. CG under
// the healthy matrix's IC(0) factorization, with thermal's options, stops
// on negative curvature with no solution: the point it would otherwise
// converge to is the unstable fixed point of an indefinite system, which
// the thermal package must see as a failed solve.
func TestCGPrecondNegativeCurvature(t *testing.T) {
	base := laplacian2D(8, 2.0)
	n := base.N()
	ic, err := NewICPreconditioner(base)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, base.NNZ())
	if err := base.CopyValues(vals); err != nil {
		t.Fatal(err)
	}
	diag, err := base.DiagIndices()
	if err != nil {
		t.Fatal(err)
	}
	vals[diag[20]] = -40
	a, err := base.WithValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.7)
	}
	opts := SolveOptions{Tol: 1e-9, MaxIter: 20 * n}

	x, st, err := CGPrecond(a, rhs, ic, opts)
	if !errors.Is(err, ErrNoConvergence) || !strings.Contains(err.Error(), "pᵀAp=-") {
		t.Fatalf("IC(0)-CG on the indefinite matrix: err = %v, want a negative-curvature stop", err)
	}
	if x != nil || st.Iterations == 0 || st.Residual != 0 {
		t.Errorf("negative-curvature stop returned a solution (%t) or stats %+v, want none and the stopping iteration", x != nil, st)
	}
	t.Logf("IC(0)-CG stopped at iteration %d", st.Iterations)
}

// Property: CG's solution of a random dense SPD system, under its IC(0)
// factorization (a full Cholesky on a dense pattern), reproduces the rhs.
func TestCGPropertySPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		ic, err := NewICPreconditioner(a)
		if err != nil {
			return false
		}
		x, _, err := CGPrecond(a, b, ic, SolveOptions{Tol: 1e-12})
		if err != nil {
			return false
		}
		r := make([]float64, n)
		return a.Residual(r, x, b) < 1e-6*(1+NormInf(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: LU of a well-conditioned random matrix solves consistently for
// two different right-hand sides (linearity of the solve).
func TestLULinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) // diagonally dominate for conditioning
		}
		f2, err := NewLU(a)
		if err != nil {
			return false
		}
		b1 := make([]float64, n)
		b2 := make([]float64, n)
		sum := make([]float64, n)
		for i := range b1 {
			b1[i], b2[i] = rng.NormFloat64(), rng.NormFloat64()
			sum[i] = b1[i] + b2[i]
		}
		x1, err1 := f2.Solve(b1)
		x2, err2 := f2.Solve(b2)
		xs, err3 := f2.Solve(sum)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range xs {
			if math.Abs(xs[i]-(x1[i]+x2[i])) > 1e-8*(1+math.Abs(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNoConvergenceReported: a solve that runs out of MaxIter fails with
// ErrNoConvergence and reports the budget it spent and the residual it
// reached.
func TestNoConvergenceReported(t *testing.T) {
	a := laplacian2D(20, 1)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = 1
	}
	_, st, err := CGPrecond(a, b, icOf(t, a), SolveOptions{MaxIter: 1, Tol: 1e-14})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("CGPrecond with MaxIter=1: err = %v, want ErrNoConvergence", err)
	}
	if st.Iterations != 1 || !(st.Residual > 1e-14) {
		t.Errorf("stats %+v, want 1 iteration and the residual above the tolerance", st)
	}
}
