package sparse

import (
	"fmt"
	"math"
	"slices"
)

// ICPreconditioner is a zero-fill incomplete Cholesky factorization
// M = L·Lᵀ of a symmetric positive-definite matrix, with L restricted to
// the sparsity pattern of the lower triangle of A. Its structure arrays
// are shared with the ICSymbolic it was factored through; it owns only
// the values of L and Lᵀ, and is read-only once built.
type ICPreconditioner struct {
	n int
	// l is the factor in CSR layout (rows sorted by column, diagonal last).
	lRowPtr []int32
	lColIdx []int32
	lValues []float64
	// lt is Lᵀ in CSR layout, for the backward solve.
	ltRowPtr []int32
	ltColIdx []int32
	ltValues []float64
}

// ICSymbolic is the symbolic half of IC(0) on one sparsity pattern: the
// structure of L and Lᵀ, and where each of their entries takes its value
// from. Every matrix on that pattern factors through Factor, which
// allocates only the two value arrays, so a cache of factorizations over
// one pattern pays the structural analysis once. It is read-only after
// construction and safe for concurrent Factor calls.
type ICSymbolic struct {
	n int
	// aRowPtr and aColIdx are the analysed pattern of A (shared, immutable).
	aRowPtr []int32
	aColIdx []int32
	// lRowPtr and lColIdx are L's structure; lSrc[k] indexes A's value
	// array for L's entry k.
	lRowPtr []int32
	lColIdx []int32
	lSrc    []int32
	// ltRowPtr and ltColIdx are Lᵀ's structure; ltSrc[k] indexes L's value
	// array for Lᵀ's entry k.
	ltRowPtr []int32
	ltColIdx []int32
	ltSrc    []int32
}

// NewICPreconditioner computes the IC(0) factorization. It returns an
// error when the matrix is structurally unsuitable (no structural
// diagonal) or meets a non-positive pivot, the sign of a matrix that is
// not positive definite enough to factor.
func NewICPreconditioner(a *CSR) (*ICPreconditioner, error) {
	s, err := NewICSymbolic(a)
	if err != nil {
		return nil, err
	}
	return s.Factor(a)
}

// NewICSymbolic analyses the sparsity pattern of a for IC(0): L takes the
// lower triangle of the pattern, rows sorted by column with the diagonal
// last. It errors when a row has no structural diagonal.
func NewICSymbolic(a *CSR) (*ICSymbolic, error) {
	n := a.N()
	s := &ICSymbolic{n: n, aRowPtr: a.rowPtr, aColIdx: a.colIdx}

	// Collect the lower-triangle pattern row by row (columns ascending,
	// diagonal last in each row).
	s.lRowPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		lo, hi := int(a.rowPtr[i]), int(a.rowPtr[i+1])
		cnt := 0
		hasDiag := false
		for k := lo; k < hi; k++ {
			j := int(a.colIdx[k])
			if j < i {
				cnt++
			} else if j == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("sparse: IC(0) needs a structurally nonzero diagonal (row %d)", i)
		}
		s.lRowPtr[i+1] = s.lRowPtr[i] + int32(cnt+1)
	}
	nnz := int(s.lRowPtr[n])
	s.lColIdx = make([]int32, nnz)
	s.lSrc = make([]int32, nnz)
	for i := 0; i < n; i++ {
		pos := s.lRowPtr[i]
		lo, hi := int(a.rowPtr[i]), int(a.rowPtr[i+1])
		diag := int32(-1)
		for k := lo; k < hi; k++ {
			switch j := int(a.colIdx[k]); {
			case j < i:
				s.lColIdx[pos] = int32(j)
				s.lSrc[pos] = int32(k)
				pos++
			case j == i:
				diag = int32(k)
			}
		}
		// Diagonal last.
		s.lColIdx[pos] = int32(i)
		s.lSrc[pos] = diag
	}

	// Lᵀ in CSR form, for the backward solve.
	s.ltRowPtr = make([]int32, n+1)
	for k := 0; k < nnz; k++ {
		s.ltRowPtr[s.lColIdx[k]+1]++
	}
	for i := 0; i < n; i++ {
		s.ltRowPtr[i+1] += s.ltRowPtr[i]
	}
	s.ltColIdx = make([]int32, nnz)
	s.ltSrc = make([]int32, nnz)
	fill := make([]int32, n)
	copy(fill, s.ltRowPtr[:n])
	for i := 0; i < n; i++ {
		for k := s.lRowPtr[i]; k < s.lRowPtr[i+1]; k++ {
			j := s.lColIdx[k]
			s.ltColIdx[fill[j]] = int32(i)
			s.ltSrc[fill[j]] = k
			fill[j]++
		}
	}
	return s, nil
}

// Factor computes the IC(0) factorization of a, which must have the
// pattern NewICSymbolic analysed. It errors on a different pattern and on
// a zero or non-positive pivot (an indefinite matrix).
func (s *ICSymbolic) Factor(a *CSR) (*ICPreconditioner, error) {
	if !s.matches(a) {
		return nil, fmt.Errorf("sparse: IC(0) factor: matrix pattern differs from the analysed one")
	}
	p := &ICPreconditioner{
		n:        s.n,
		lRowPtr:  s.lRowPtr,
		lColIdx:  s.lColIdx,
		lValues:  make([]float64, len(s.lSrc)),
		ltRowPtr: s.ltRowPtr,
		ltColIdx: s.ltColIdx,
		ltValues: make([]float64, len(s.ltSrc)),
	}
	for k, src := range s.lSrc {
		p.lValues[k] = a.values[src]
	}

	// Factorize in place. For entry (i, j), j < i:
	//   L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j]
	// Diagonal:
	//   L[i][i] = sqrt(A[i][i] − Σ_{k<i} L[i][k]²)
	for i := 0; i < s.n; i++ {
		rowLo, rowHi := int(p.lRowPtr[i]), int(p.lRowPtr[i+1])
		for idx := rowLo; idx < rowHi-1; idx++ {
			j := int(p.lColIdx[idx])
			// Sparse dot of row i (up to column j) with row j (up to j).
			sum := p.lValues[idx]
			ai, aj := rowLo, int(p.lRowPtr[j])
			aiEnd, ajEnd := idx, int(p.lRowPtr[j+1])-1
			for ai < aiEnd && aj < ajEnd {
				ci, cj := p.lColIdx[ai], p.lColIdx[aj]
				switch {
				case ci == cj:
					sum -= p.lValues[ai] * p.lValues[aj]
					ai++
					aj++
				case ci < cj:
					ai++
				default:
					aj++
				}
			}
			dj := p.lValues[ajEnd]
			if dj == 0 {
				return nil, fmt.Errorf("sparse: IC(0) zero pivot at row %d", j)
			}
			p.lValues[idx] = sum / dj
		}
		// Diagonal.
		d := p.lValues[rowHi-1]
		for idx := rowLo; idx < rowHi-1; idx++ {
			d -= p.lValues[idx] * p.lValues[idx]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("sparse: IC(0) non-positive pivot %g at row %d (matrix not SPD enough)", d, i)
		}
		p.lValues[rowHi-1] = math.Sqrt(d)
	}

	for k, src := range s.ltSrc {
		p.ltValues[k] = p.lValues[src]
	}
	return p, nil
}

// matches reports whether a has the analysed pattern. Matrices sharing
// the analysed arrays (CSR.WithValues) match without a scan.
func (s *ICSymbolic) matches(a *CSR) bool {
	if a.n != s.n || len(a.colIdx) != len(s.aColIdx) {
		return false
	}
	if len(s.aColIdx) > 0 && &a.colIdx[0] == &s.aColIdx[0] && &a.rowPtr[0] == &s.aRowPtr[0] {
		return true
	}
	return slices.Equal(a.rowPtr, s.aRowPtr) && slices.Equal(a.colIdx, s.aColIdx)
}

// ApplyScratch computes dst = (L·Lᵀ)⁻¹ · r via one forward and one
// backward triangular solve, through a caller-provided intermediate
// vector (length N). The factor arrays are read-only after construction,
// so a cached ICPreconditioner is safe for concurrent solves as long as
// each solve brings its own scratch (see Workspace).
//
//oftec:hotpath
func (p *ICPreconditioner) ApplyScratch(dst, r, scratch []float64) {
	y := scratch
	// Forward solve L·y = r (rows of L are sorted with the diagonal last).
	for i := 0; i < p.n; i++ {
		s := r[i]
		lo, hi := int(p.lRowPtr[i]), int(p.lRowPtr[i+1])
		for k := lo; k < hi-1; k++ {
			s -= p.lValues[k] * y[p.lColIdx[k]]
		}
		y[i] = s / p.lValues[hi-1]
	}
	// Backward solve Lᵀ·dst = y. Row i of Lᵀ holds columns ≥ i; its first
	// entry is the diagonal.
	for i := p.n - 1; i >= 0; i-- {
		s := y[i]
		lo, hi := int(p.ltRowPtr[i]), int(p.ltRowPtr[i+1])
		for k := lo + 1; k < hi; k++ {
			s -= p.ltValues[k] * dst[p.ltColIdx[k]]
		}
		dst[i] = s / p.ltValues[lo]
	}
}

// CGPrecond solves A·x = b, for a symmetric A, with the conjugate
// gradient method under the IC(0) factorization m; it neither factors nor
// checks symmetry. It fails, wrapping ErrNoConvergence, on non-positive
// curvature (pᵀAp ≤ 0), the sign of an indefinite A, when MaxIter runs
// out, and on a nil m, the mark of a factorization that failed, before
// any iteration and with zero Stats. Near thermal runaway the point CG
// would converge to is the unstable fixed point, not a steady state, so
// the thermal package, whose one solver this is, reports any failure as
// runaway.
//
//oftec:allocok returns a freshly allocated solution vector by contract; iteration scratch comes from SolveOptions.Work
func CGPrecond(a *CSR, b []float64, m *ICPreconditioner, opts SolveOptions) ([]float64, Stats, error) {
	n := a.N()
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("sparse: rhs length %d does not match matrix dimension %d", len(b), n)
	}
	if m == nil {
		return nil, Stats{}, fmt.Errorf("%w: no IC(0) factorization to precondition CG", ErrNoConvergence)
	}
	x := make([]float64, n)
	if opts.X0 != nil {
		copy(x, opts.X0)
	}
	ws := opts.work(n)
	r := ws.r
	a.Residual(r, x, b)
	bnorm := Norm2(b)
	if bnorm == 0 {
		return x, Stats{}, nil
	}
	tol := opts.tol()

	// A shared (cached) factorization is applied through the per-solve
	// scratch vector, so concurrent solves never contend on it.
	z, p, ap := ws.z, ws.p, ws.ap
	m.ApplyScratch(z, r, ws.pre)
	copy(p, z)
	rz := Dot(r, z)

	maxIter := opts.maxIter(n)
	for it := 1; it <= maxIter; it++ {
		a.MulVec(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, Stats{Iterations: it}, fmt.Errorf("%w: CG breakdown (pᵀAp=%g)", ErrNoConvergence, pap)
		}
		alpha := rz / pap
		AXPY(alpha, p, x)
		AXPY(-alpha, ap, r)
		res := Norm2(r) / bnorm
		if res <= tol {
			return x, Stats{Iterations: it, Residual: res}, nil
		}
		m.ApplyScratch(z, r, ws.pre)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, Stats{Iterations: maxIter, Residual: Norm2(r) / bnorm}, ErrNoConvergence
}
