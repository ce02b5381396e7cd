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

func TestCGOnLaplacian(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 500} {
		a := laplacian1D(n, 3.5)
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		x, st, err := CG(a, b, SolveOptions{})
		if err != nil {
			t.Fatalf("n=%d: CG: %v", n, err)
		}
		if st.Iterations == 0 && NormInf(b) > 0 {
			t.Errorf("n=%d: CG reported zero iterations", n)
		}
		checkSolution(t, "CG", a, x, b, 1e-8)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian1D(5, 1)
	x, _, err := CG(a, make([]float64, 5), SolveOptions{})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if NormInf(x) != 0 {
		t.Errorf("CG with zero rhs returned nonzero x: %v", x)
	}
}

func TestCGWarmStart(t *testing.T) {
	a := laplacian1D(50, 2)
	b := make([]float64, 50)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x1, st1, err := CG(a, b, SolveOptions{})
	if err != nil {
		t.Fatalf("cold CG: %v", err)
	}
	_, st2, err := CG(a, b, SolveOptions{X0: x1})
	if err != nil {
		t.Fatalf("warm CG: %v", err)
	}
	if st2.Iterations > st1.Iterations {
		t.Errorf("warm start took %d iterations, cold start %d", st2.Iterations, st1.Iterations)
	}
}

func TestCGRejectsDimensionMismatch(t *testing.T) {
	a := laplacian1D(4, 1)
	if _, _, err := CG(a, make([]float64, 3), SolveOptions{}); err == nil {
		t.Fatal("CG accepted mismatched rhs")
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

func TestSolveAutoAgreesWithLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(20)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xAuto, _, err := SolveAuto(a, b, SolveOptions{})
		if err != nil {
			t.Fatalf("SolveAuto: %v", err)
		}
		f, err := NewLU(a.Dense())
		if err != nil {
			t.Fatalf("NewLU: %v", err)
		}
		xLU, err := f.Solve(b)
		if err != nil {
			t.Fatalf("LU Solve: %v", err)
		}
		for i := range xAuto {
			if math.Abs(xAuto[i]-xLU[i]) > 1e-6*(1+math.Abs(xLU[i])) {
				t.Fatalf("trial %d: xAuto[%d]=%g differs from xLU=%g", trial, i, xAuto[i], xLU[i])
			}
		}
	}
}

// TestSolveAutoRungs: with a factorization SolveAuto's answer is CG's
// under it, bit for bit, in far fewer iterations than the dimension (a
// dropped factorization would show up there); without one it is Jacobi
// CG's, bit for bit.
func TestSolveAutoRungs(t *testing.T) {
	const n = 40
	m := laplacian1D(n, 2)
	ic, err := NewICPreconditioner(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Cos(float64(i))
	}
	opts := SolveOptions{Tol: 1e-12}

	got, st, err := SolveAuto(m, rhs, SolveOptions{Tol: 1e-12, Precond: ic})
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := CGPrecond(m, rhs, ic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || st != wantSt {
		t.Error("SolveAuto with a factorization differs from CGPrecond under it")
	}
	if st.Iterations >= n {
		t.Errorf("preconditioned solve took %d iterations; factorization ignored?", st.Iterations)
	}

	got, st, err = SolveAuto(m, rhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err = CG(m, rhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || st != wantSt {
		t.Error("SolveAuto without a factorization differs from Jacobi CG")
	}
}

// TestSolveAutoNegativeCurvature: one strongly negative diagonal makes
// the matrix indefinite, as runaway does to the thermal systems. CG under
// the healthy matrix's IC(0) factorization stops on negative curvature,
// and so does SolveAuto's second rung, Jacobi CG: the point it would
// otherwise converge to is the unstable fixed point of an indefinite
// system, which the thermal package must see as a failed solve.
func TestSolveAutoNegativeCurvature(t *testing.T) {
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

	_, st, err := CGPrecond(a, rhs, ic, opts)
	if !errors.Is(err, ErrNoConvergence) || !strings.Contains(err.Error(), "pᵀAp=-") {
		t.Fatalf("IC(0)-CG on the indefinite matrix: err = %v, want a negative-curvature stop", err)
	}
	t.Logf("IC(0)-CG stopped at iteration %d", st.Iterations)

	opts.Precond = ic
	x, st, err := SolveAuto(a, rhs, opts)
	if !errors.Is(err, ErrNoConvergence) || x != nil {
		t.Fatalf("SolveAuto on the indefinite matrix: solution returned %t, err = %v, want no solution and ErrNoConvergence", x != nil, err)
	}
	t.Logf("Jacobi CG stopped at iteration %d: %v", st.Iterations, err)
}

// Property: CG solution of a random SPD system reproduces the rhs.
func TestCGPropertySPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, _, err := CG(a, b, SolveOptions{Tol: 1e-12})
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

func TestNoConvergenceReported(t *testing.T) {
	a := laplacian1D(200, 1)
	b := make([]float64, 200)
	for i := range b {
		b[i] = 1
	}
	_, _, err := CG(a, b, SolveOptions{MaxIter: 1, Tol: 1e-14})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("CG with MaxIter=1: err = %v, want ErrNoConvergence", err)
	}
}
