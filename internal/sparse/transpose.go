package sparse

import "fmt"

// MulVecT computes dst = mᵀ·x without materializing the transpose: each
// stored entry (i, j, v) contributes v·x[i] to dst[j]. dst and x must both
// have length N and must not alias each other.
//
//oftec:hotpath
func (m *CSR) MulVecT(dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.n; i++ {
		lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			dst[m.colIdx[k]] += m.values[k] * xi
		}
	}
}

// Transpose returns mᵀ as a freshly built CSR matrix. The symmetry stamp
// carries over (Aᵀ is symmetric iff A is).
func (m *CSR) Transpose() *CSR {
	n := m.n
	t := &CSR{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, len(m.colIdx)),
		values: make([]float64, len(m.values)),
		sym:    m.sym,
	}
	// Count entries per transposed row (= per source column).
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	// Scatter; source rows are visited in order, so each transposed row's
	// column indices come out sorted.
	next := make([]int32, n)
	copy(next, t.rowPtr[:n])
	for i := 0; i < n; i++ {
		lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
		for k := lo; k < hi; k++ {
			c := m.colIdx[k]
			pos := next[c]
			t.colIdx[pos] = int32(i)
			t.values[pos] = m.values[k]
			next[c]++
		}
	}
	return t
}

// SolveTranspose solves Aᵀ·x = b — the adjoint system of A·x = b. On
// symmetric matrices (the assembled thermal systems, which are stamped
// via MarkSymmetric) Aᵀ = A, so the solve delegates to SolveAuto on the
// forward matrix and reuses everything the forward solve already paid
// for: the SolveOptions.Precond hook carries the cached IC(0)
// factorization, whose application is exactly one forward + one backward
// triangular sweep. That reuse is what makes an adjoint gradient cost one
// extra triangular-sweep solve instead of a fresh factorization.
//
// Nonsymmetric matrices fall back to an explicit O(nnz) transpose
// followed by SolveAuto; the caller's preconditioner is dropped there
// because it preconditions A, not Aᵀ.
func SolveTranspose(a *CSR, b []float64, opts SolveOptions) ([]float64, Stats, error) {
	if len(b) != a.N() {
		return nil, Stats{}, fmt.Errorf("sparse: rhs length %d does not match matrix dimension %d", len(b), a.N())
	}
	if a.SymmetricHint(1e-12) {
		return SolveAuto(a, b, opts)
	}
	t := a.Transpose()
	opts.Precond = nil
	return SolveAuto(t, b, opts)
}
