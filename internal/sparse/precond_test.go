package sparse

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// laplacian2D builds the 5-point SPD stencil on an n×n grid — the shape of
// one thermal layer's conduction matrix.
func laplacian2D(n int, g float64) *CSR {
	b := NewBuilder(n * n)
	idx := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := idx(r, c)
			b.AddDiag(i, g) // ambient coupling keeps it nonsingular
			if c+1 < n {
				j := idx(r, c+1)
				b.AddDiag(i, g)
				b.AddDiag(j, g)
				b.Add(i, j, -g)
				b.Add(j, i, -g)
			}
			if r+1 < n {
				j := idx(r+1, c)
				b.AddDiag(i, g)
				b.AddDiag(j, g)
				b.Add(i, j, -g)
				b.Add(j, i, -g)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

func TestICFactorizationExactOnTridiagonal(t *testing.T) {
	// A tridiagonal SPD matrix drops no fill, so the modified factor has
	// nothing to compensate and L·Lᵀ must reproduce A exactly; the
	// preconditioner is then an exact solver.
	a := laplacian1D(40, 3.0)
	ic, err := NewICPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.N())
	for i := range r {
		r[i] = math.Sin(float64(i) * 0.7)
	}
	x := make([]float64, a.N())
	ic.ApplyScratch(x, r, make([]float64, a.N()))
	// A·x must equal r.
	ax := make([]float64, a.N())
	a.MulVec(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-r[i]) > 1e-9 {
			t.Fatalf("IC apply not exact on tridiagonal: row %d: %g vs %g", i, ax[i], r[i])
		}
	}
}

func TestICPCGOn2DLaplacian(t *testing.T) {
	a := laplacian2D(20, 1.7)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	ic, err := NewICPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	x, stIC, err := CGPrecond(a, b, ic, SolveOptions{})
	if err != nil {
		t.Fatalf("IC-PCG: %v", err)
	}
	checkSolution(t, "IC-PCG", a, x, b, 1e-8)

	// The factorization earns its keep: on this 20×20 grid CG under the
	// modified factor takes 9 iterations, where plain IC(0) took 11 and
	// Jacobi-scaled CG 32. A bound of √n = 20 catches a factorization
	// that stopped preconditioning.
	if bound := int(math.Sqrt(float64(a.N()))); stIC.Iterations >= bound {
		t.Errorf("IC-PCG took %d iterations, want fewer than %d", stIC.Iterations, bound)
	}
}

// TestModifiedICCompensatesDroppedFill pins the factorization entry by
// entry on a 2-D grid, where each elimination drops fill: L·Lᵀ matches A
// on every off-diagonal entry of the pattern, and each diagonal of L·Lᵀ
// sits below A's by 0.95 times the fill L·Lᵀ carries off the pattern in
// that row, so with full relaxation the row sums would match.
func TestModifiedICCompensatesDroppedFill(t *testing.T) {
	a := laplacian2D(8, 1.3)
	ic, err := NewICPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
		for k := ic.lRowPtr[i]; k < ic.lRowPtr[i+1]; k++ {
			l[i][ic.lColIdx[k]] = ic.lValues[k]
		}
	}
	dropped := 0
	for i := 0; i < n; i++ {
		var offPattern float64
		for j := 0; j < n; j++ {
			var m float64
			for k := 0; k <= min(i, j); k++ {
				m += l[i][k] * l[j][k]
			}
			switch {
			case i == j:
			case a.At(i, j) != 0:
				if math.Abs(m-a.At(i, j)) > 1e-12 {
					t.Errorf("(L·Lᵀ)[%d][%d] = %g, A = %g", i, j, m, a.At(i, j))
				}
			case m != 0:
				offPattern += m
				dropped++
			}
		}
		var d float64
		for k := 0; k <= i; k++ {
			d += l[i][k] * l[i][k]
		}
		if want := a.At(i, i) - 0.95*offPattern; math.Abs(d-want) > 1e-12*a.At(i, i) {
			t.Errorf("(L·Lᵀ)[%d][%d] = %.15g, want A − 0.95·(fill off the pattern) = %.15g", i, i, d, want)
		}
	}
	if dropped == 0 {
		t.Fatal("no fill off the pattern: the grid tests nothing")
	}
}

func TestICRejectsIndefinite(t *testing.T) {
	// A matrix with a strongly negative diagonal entry is not SPD; IC(0)
	// must report a non-positive pivot rather than produce NaNs.
	b := NewBuilder(3)
	b.AddDiag(0, 4)
	b.AddDiag(1, -5)
	b.AddDiag(2, 4)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewICPreconditioner(a); err == nil {
		t.Error("indefinite matrix accepted by IC(0)")
	}
}

func TestICRejectsMissingDiagonal(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewICPreconditioner(a); err == nil {
		t.Error("missing diagonal accepted")
	}
}

// TestCGPrecondValidation: with no factorization (a nil one marks a
// factorization that failed) CG fails before its first iteration, with no
// solution and zero Stats, wrapping ErrNoConvergence like every other
// failed solve; a zero right-hand side is no exception.
func TestCGPrecondValidation(t *testing.T) {
	a := laplacian1D(4, 1)
	for _, b := range [][]float64{{1, 2, 3, 4}, make([]float64, 4)} {
		x, st, err := CGPrecond(a, b, nil, SolveOptions{})
		if !errors.Is(err, ErrNoConvergence) || x != nil || st != (Stats{}) {
			t.Errorf("rhs %v, nil factorization: x=%v st=%+v err=%v", b, x, st, err)
		}
	}
}

// Property: IC-PCG solves random SPD diagonally-dominant systems to the
// requested tolerance.
func TestICPCGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddDiag(i, 1)
		}
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			v := -rng.Float64()
			b.Add(i, j, v)
			b.Add(j, i, v)
			b.AddDiag(i, -v+0.1)
			b.AddDiag(j, -v+0.1)
		}
		a, err := b.Build()
		if err != nil {
			return false
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		ic, err := NewICPreconditioner(a)
		if err != nil {
			return false
		}
		x, _, err := CGPrecond(a, rhs, ic, SolveOptions{Tol: 1e-11})
		if err != nil {
			return false
		}
		r := make([]float64, n)
		return a.Residual(r, x, rhs) < 1e-6*(1+NormInf(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestICSymbolicParallelMatchesSerial: matrices on one pattern, factored
// concurrently through one shared ICSymbolic, are bitwise the
// NewICPreconditioner factorizations; a matrix on any other pattern is
// rejected.
func TestICSymbolicParallelMatchesSerial(t *testing.T) {
	base := laplacian2D(12, 1.3)
	sym, err := NewICSymbolic(base)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := base.DiagIndices()
	if err != nil {
		t.Fatal(err)
	}
	mats := make([]*CSR, 8)
	for k := range mats {
		vals := make([]float64, base.NNZ())
		if err := base.CopyValues(vals); err != nil {
			t.Fatal(err)
		}
		for i, d := range diag {
			vals[d] += 0.1 * float64(k*(i%5))
		}
		if mats[k], err = base.WithValues(vals); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*ICPreconditioner, len(mats))
	var wg sync.WaitGroup
	for k := range mats {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ic, err := sym.Factor(mats[k])
			if err != nil {
				t.Error(err)
			}
			got[k] = ic
		}(k)
	}
	wg.Wait()
	for k, a := range mats {
		want, err := NewICPreconditioner(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("matrix %d: shared-symbolic factor differs from NewICPreconditioner", k)
		}
	}

	// Same dimension with a different pattern, and a different dimension.
	for _, other := range []*CSR{laplacian1D(base.N(), 1.3), laplacian2D(11, 1.3)} {
		if _, err := sym.Factor(other); err == nil {
			t.Errorf("%d×%d matrix with %d entries factored on the analysed pattern", other.N(), other.N(), other.NNZ())
		}
	}
}
