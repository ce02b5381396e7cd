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
	ic := icOf(t, base)
	x0, _, err := CGPrecond(base, rhs, ic, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x1, _, err := CGPrecond(m, rhs, ic, SolveOptions{})
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

// TestWorkspaceReuse: solves through one workspace must agree with
// workspace-free solves bit-for-bit, and the workspace must grow to fit.
func TestWorkspaceReuse(t *testing.T) {
	ws := &Workspace{}
	for _, n := range []int{3, 7, 5} {
		a := laplacian2D(n, 2)
		ic := icOf(t, a)
		rhs := make([]float64, a.N())
		for i := range rhs {
			rhs[i] = 1 + float64(i%3)
		}
		plain, st0, err := CGPrecond(a, rhs, ic, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pooled, st1, err := CGPrecond(a, rhs, ic, SolveOptions{Work: ws})
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
