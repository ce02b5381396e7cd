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
	// nothing to compensate and L̃·D·L̃ᵀ must reproduce A exactly; the
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
// entry on a 2-D grid, where each elimination drops fill. It rebuilds
// M = L̃·D·L̃ᵀ from the stored factor (unit-lower off-diagonals, 1/d in the
// diagonal slot): M matches A on every off-diagonal entry of the pattern,
// and each diagonal of M sits below A's by 0.95 times the fill M carries
// off the pattern in that row, so with full relaxation the row sums would
// match.
func TestModifiedICCompensatesDroppedFill(t *testing.T) {
	a := laplacian2D(8, 1.3)
	ic, err := NewICPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	l := make([][]float64, n)
	d := make([]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
		lo, hi := ic.lRowPtr[i], ic.lRowPtr[i+1]
		for k := lo; k < hi-1; k++ {
			l[i][ic.lColIdx[k]] = ic.lValues[k]
		}
		if ic.lColIdx[hi-1] != int32(i) {
			t.Fatalf("row %d: diagonal slot holds column %d", i, ic.lColIdx[hi-1])
		}
		l[i][i] = 1
		d[i] = 1 / ic.lValues[hi-1]
		if !(d[i] > 0) {
			t.Fatalf("row %d: pivot %g", i, d[i])
		}
	}
	mEntry := func(i, j int) float64 {
		var m float64
		for k := 0; k <= min(i, j); k++ {
			m += l[i][k] * d[k] * l[j][k]
		}
		return m
	}
	dropped := 0
	for i := 0; i < n; i++ {
		var offPattern float64
		for j := 0; j < n; j++ {
			m := mEntry(i, j)
			switch {
			case i == j:
			case a.At(i, j) != 0:
				if math.Abs(m-a.At(i, j)) > 1e-12 {
					t.Errorf("(L̃·D·L̃ᵀ)[%d][%d] = %g, A = %g", i, j, m, a.At(i, j))
				}
			case m != 0:
				offPattern += m
				dropped++
			}
		}
		if got, want := mEntry(i, i), a.At(i, i)-0.95*offPattern; math.Abs(got-want) > 1e-12*a.At(i, i) {
			t.Errorf("(L̃·D·L̃ᵀ)[%d][%d] = %.15g, want A − 0.95·(fill off the pattern) = %.15g", i, i, got, want)
		}
	}
	if dropped == 0 {
		t.Fatal("no fill off the pattern: the grid tests nothing")
	}
}

// TestICApplyPlanMatchesRowLoopBitwise: on random SPD patterns whose
// factor rows store 1 to 12 entries (every unrolled length and rows on
// either side of them), ApplyScratch along the row plan matches the two
// plain row-loop sweeps bit for bit.
func TestICApplyPlanMatchesRowLoopBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := map[int32]bool{}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddDiag(i, 1)
			for _, j := range rng.Perm(i)[:rng.Intn(min(i, 11)+1)] {
				v := -rng.Float64()
				b.Add(i, j, v)
				b.Add(j, i, v)
				b.AddDiag(i, -v)
				b.AddDiag(j, -v)
			}
		}
		a, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ic, err := NewICPreconditioner(a)
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		// The plain sweeps: forward y_i = r_i − Σ L̃_ik·y_k, w_i = y_i/d_i,
		// then backward by columns of L̃ᵀ.
		y, want := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			s := r[i]
			last := ic.lRowPtr[i+1] - 1
			for k := ic.lRowPtr[i]; k < last; k++ {
				s -= ic.lValues[k] * y[ic.lColIdx[k]]
			}
			y[i] = s
			want[i] = s * ic.lValues[last]
		}
		for i := n - 1; i >= 0; i-- {
			for k := ic.lRowPtr[i]; k < ic.lRowPtr[i+1]-1; k++ {
				want[ic.lColIdx[k]] -= ic.lValues[k] * want[i]
			}
		}
		got := make([]float64, n)
		ic.ApplyScratch(got, r, make([]float64, n))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d, row %d (%d entries): planned %v, row loops %v", trial, i, ic.lRowPtr[i+1]-ic.lRowPtr[i], got[i], want[i])
			}
		}
		for _, run := range ic.runs {
			lengths[run.length] = true
		}
	}
	for l := int32(0); l <= sweepMaxLen; l++ {
		if (l == 0 || l >= sweepMinLen) && !lengths[l] {
			t.Errorf("no run of length %d: the patterns miss a loop body", l)
		}
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

// randomConductance builds an n×n symmetric matrix on a random pattern:
// a conduction Laplacian with couplings of random strength, a positive
// ambient term on every diagonal, and a random shift subtracted from
// each diagonal that makes some draws indefinite.
func randomConductance(rng *rand.Rand, n int, density, shift float64) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddDiag(i, 0.1+rng.Float64()-shift*rng.Float64())
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				g := 0.1 + rng.Float64()
				b.AddDiag(i, g)
				b.AddDiag(j, g)
				b.Add(i, j, -g)
				b.Add(j, i, -g)
			}
		}
	}
	m, err := b.BuildWithDiagonal()
	if err != nil {
		panic(err)
	}
	return m
}

// perturbTrailing returns a matrix on a's pattern that agrees with a
// outside the trailing block from split on, where every entry moves by a
// random amount, symmetrically, and each diagonal may drop far enough to
// fail the factorization there.
func perturbTrailing(rng *rand.Rand, a *CSR, split int, shift float64) *CSR {
	vals := make([]float64, a.NNZ())
	if err := a.CopyValues(vals); err != nil {
		panic(err)
	}
	for i := split; i < a.N(); i++ {
		for k := int(a.RowPtr(i)); k < int(a.RowPtr(i+1)); k++ {
			switch j := a.ColAt(k); {
			case j == i:
				vals[k] += 0.5*rng.Float64() - shift*rng.Float64()
			case j >= split && j < i:
				dv := 0.2 * (rng.Float64() - 0.5)
				vals[k] += dv
				for kt := int(a.RowPtr(j)); kt < int(a.RowPtr(j+1)); kt++ {
					if a.ColAt(kt) == i {
						vals[kt] += dv
					}
				}
			}
		}
	}
	m, err := a.WithValues(vals)
	if err != nil {
		panic(err)
	}
	return m
}

// TestPrefixFactorMatchesFactorBitwise: a factor finished through a
// prefix equals ICSymbolic.Factor's bit for bit, on random patterns
// split at random rows, for every matrix that agrees with the prefix's
// outside the trailing block, and so does one FactorInto reuses a header
// for, draw after draw, failed factorizations included; and a
// factorization that fails, in the leading columns or in the trailing
// block, fails in the same column with the same error either way. The
// draws must reach both kinds of failure and the split's extremes.
func TestPrefixFactorMatchesFactorBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var factored, prefixFailed, trailingFailed, empty, whole int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		a := randomConductance(rng, n, 0.05+0.3*rng.Float64(), 0.3*rng.Float64())
		sym, err := NewICSymbolic(a)
		if err != nil {
			t.Fatal(err)
		}
		split := rng.Intn(n + 1)
		switch split {
		case 0:
			empty++
		case n:
			whole++
		}
		pre, preErr := sym.Prefix(a, split)
		var reused ICPreconditioner
		for draw := 0; draw < 4; draw++ {
			b := perturbTrailing(rng, a, split, 0.6*rng.Float64())
			want, wantErr := sym.Factor(b)
			if preErr != nil {
				if wantErr == nil || wantErr.Error() != preErr.Error() {
					t.Fatalf("trial %d (n=%d, split %d): the prefix failed with %v, Factor with %v", trial, n, split, preErr, wantErr)
				}
				prefixFailed++
				continue
			}
			got, gotErr := pre.Factor(b)
			intoErr := pre.FactorInto(&reused, b)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d (n=%d, split %d): prefix factor error %v, Factor error %v", trial, n, split, gotErr, wantErr)
			}
			if (intoErr == nil) != (wantErr == nil) || intoErr != nil && intoErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d (n=%d, split %d): FactorInto error %v, Factor error %v", trial, n, split, intoErr, wantErr)
			}
			if gotErr != nil {
				trailingFailed++
				continue
			}
			for k, v := range want.lValues {
				if math.Float64bits(got.lValues[k]) != math.Float64bits(v) || math.Float64bits(reused.lValues[k]) != math.Float64bits(v) {
					t.Fatalf("trial %d (n=%d, split %d): factor value %d is %v through the prefix, %v into a reused header, %v through Factor", trial, n, split, k, got.lValues[k], reused.lValues[k], v)
				}
			}
			if !reflect.DeepEqual(&reused, got) {
				t.Fatalf("trial %d (n=%d, split %d): the reused header differs from Factor's", trial, n, split)
			}
			factored++
		}
	}
	t.Logf("%d factors bitwise equal, %d failures in the prefix, %d in the trailing block, %d empty and %d whole-matrix splits",
		factored, prefixFailed, trailingFailed, empty, whole)
	if factored == 0 || prefixFailed == 0 || trailingFailed == 0 || empty == 0 || whole == 0 {
		t.Error("the draws missed a case")
	}

	// The prefix refuses a split out of range and a matrix off its pattern.
	a := laplacian2D(6, 1.1)
	sym, err := NewICSymbolic(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{-1, a.N() + 1} {
		if _, err := sym.Prefix(a, split); err == nil {
			t.Errorf("split %d of a %d-row matrix made a prefix", split, a.N())
		}
	}
	pre, err := sym.Prefix(a, a.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Factor(laplacian1D(a.N(), 1.1)); err == nil {
		t.Error("a matrix off the analysed pattern factored through the prefix")
	}
}
