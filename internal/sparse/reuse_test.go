package sparse

import (
	"math"
	"testing"
)

// TestBuildWithDiagonal: every row must carry a structural diagonal slot,
// including rows whose triplets never touched the diagonal, and the
// numeric content must match the plain build.
func TestBuildWithDiagonal(t *testing.T) {
	b := NewBuilder(4)
	// Row 2 gets only off-diagonal entries; row 3 gets nothing at all.
	b.Add(0, 0, 2)
	b.Add(1, 1, 3)
	b.Add(2, 1, -1)
	m, err := b.BuildWithDiagonal()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := m.DiagIndices()
	if err != nil {
		t.Fatalf("DiagIndices after BuildWithDiagonal: %v", err)
	}
	if len(idx) != 4 {
		t.Fatalf("got %d diagonal indices, want 4", len(idx))
	}
	for i, k := range idx {
		if m.ColAt(int(k)) != i {
			t.Errorf("row %d: diag index %d points at column %d", i, k, m.ColAt(int(k)))
		}
	}
	for i, want := range []float64{2, 3, 0, 0} {
		if got := m.At(i, i); got != want {
			t.Errorf("diag[%d] = %g, want %g", i, got, want)
		}
	}
	if got := m.At(2, 1); got != -1 {
		t.Errorf("off-diagonal lost: At(2,1) = %g, want -1", got)
	}

	// Plain Build must refuse DiagIndices on a missing diagonal.
	b2 := NewBuilder(2)
	b2.Add(0, 1, 1)
	b2.Add(1, 0, 1)
	m2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.DiagIndices(); err == nil {
		t.Error("DiagIndices accepted a matrix without stored diagonals")
	}
}

// TestWithValuesSharedPattern: a value-array clone must solve identically
// to the original and reflect in-place patches without touching the base.
func TestWithValuesSharedPattern(t *testing.T) {
	base := laplacian1D(40, 1.5)
	vals := make([]float64, base.NNZ())
	if err := base.CopyValues(vals); err != nil {
		t.Fatal(err)
	}
	m, err := base.WithValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.WithValues(make([]float64, 3)); err == nil {
		t.Error("WithValues accepted a wrong-length value array")
	}

	rhs := make([]float64, 40)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	x0, _, err := SolveAuto(base, rhs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x1, _, err := SolveAuto(m, rhs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if x0[i] != x1[i] {
			t.Fatalf("shared-pattern solve differs at %d: %g vs %g", i, x0[i], x1[i])
		}
	}

	// Patch the clone's diagonal in place; the base must be unaffected.
	idx, err := m.DiagIndices()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range idx {
		vals[k] += 1
	}
	if got, want := m.At(3, 3), base.At(3, 3)+1; got != want {
		t.Errorf("patched diag = %g, want %g", got, want)
	}
	if base.At(3, 3) != 3 {
		t.Errorf("base mutated: At(3,3) = %g, want 3", base.At(3, 3))
	}
}

// TestSymmetricHintStamp: the stamp must short-circuit the scan in both
// directions, and the unstamped path must still compute the truth.
func TestSymmetricHintStamp(t *testing.T) {
	m := laplacian1D(10, 1)
	if !m.SymmetricHint(1e-12) {
		t.Fatal("unstamped symmetric matrix reported asymmetric")
	}
	m.MarkSymmetric(false)
	if m.SymmetricHint(1e-12) {
		t.Error("stamp not trusted: MarkSymmetric(false) ignored")
	}
	m.MarkSymmetric(true)
	if !m.SymmetricHint(1e-12) {
		t.Error("stamp not trusted: MarkSymmetric(true) ignored")
	}

	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	asym, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if asym.SymmetricHint(1e-12) {
		t.Error("unstamped asymmetric matrix reported symmetric")
	}
}

// TestSolveAutoResidualConsistency: the dense-LU fallback must report the
// same ‖b−Ax‖₂/‖b‖₂ statistic that SolveOptions.Tol is defined against,
// matching the iterative solvers.
func TestSolveAutoResidualConsistency(t *testing.T) {
	// An asymmetric system with a one-iteration budget: BiCGSTAB cannot
	// reach 1e-10 in one step, so SolveAuto lands on the dense-LU
	// fallback, whose reported statistic is checked against a direct
	// recomputation of ‖b−Ax‖₂/‖b‖₂.
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 1, -3)
	b.Add(1, 2, 1)
	b.Add(2, 0, 4)
	b.Add(2, 2, 1)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2, 3}
	x, stats, err := SolveAuto(m, rhs, SolveOptions{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, 3)
	m.Residual(r, x, rhs)
	want := Norm2(r) / Norm2(rhs)
	if math.Abs(stats.Residual-want) > 1e-15 {
		t.Errorf("reported residual %g, want ‖r‖₂/‖b‖₂ = %g", stats.Residual, want)
	}
	if stats.Residual > 1e-10 {
		t.Errorf("LU residual %g unexpectedly large", stats.Residual)
	}
}

// TestWorkspaceReuse: solves through one workspace must agree with
// workspace-free solves bit-for-bit, and the workspace must grow to fit.
func TestWorkspaceReuse(t *testing.T) {
	ws := &Workspace{}
	for _, n := range []int{7, 40, 12} {
		a := laplacian1D(n, 2)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = 1 + float64(i%3)
		}
		plain, st0, err := SolveAuto(a, rhs, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pooled, st1, err := SolveAuto(a, rhs, SolveOptions{Work: ws})
		if err != nil {
			t.Fatal(err)
		}
		if st0.Iterations != st1.Iterations {
			t.Errorf("n=%d: iteration count differs with workspace: %d vs %d", n, st0.Iterations, st1.Iterations)
		}
		for i := range plain {
			if plain[i] != pooled[i] {
				t.Fatalf("n=%d: workspace solve differs at %d", n, i)
			}
		}
	}
}
