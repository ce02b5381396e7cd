package sparse

import (
	"fmt"
	"math"
	"slices"
)

// relaxation is the share of each fill entry the zero-fill pattern
// drops that the modified factorization moves onto the two diagonals the
// entry would have coupled. Full compensation (1) keeps L·Lᵀ's row sums
// equal to A's, but it drives pivots toward zero on the thermal
// systems' weakly coupled slices: at paper resolution it fails to factor
// the default ω-slice below ω ≈ 2.38 rad/s, where plain IC(0) factors,
// and a slice that does not factor makes every point on it runaway.
// 0.95 keeps nearly all of its iteration savings and factors there.
const relaxation = 0.95

// ICPreconditioner is a relaxed modified incomplete Cholesky
// factorization M = L·Lᵀ of a symmetric positive-definite matrix, with L
// restricted to the sparsity pattern of the lower triangle of A (zero
// fill, as in IC(0)). Its structure arrays are shared with the
// ICSymbolic it was factored through; it owns only the values of L, and
// is read-only once built.
type ICPreconditioner struct {
	n int
	// l is the factor in CSR layout (rows sorted by column, diagonal
	// last). The backward solve reads its rows as the columns of Lᵀ.
	lRowPtr []int32
	lColIdx []int32
	lValues []float64
}

// ICSymbolic is the symbolic half of the factorization on one sparsity
// pattern: the structure of L, the structure of Lᵀ the right-looking
// factorization walks, and the entry each elimination step updates. Every
// matrix on that pattern factors through Factor, which allocates only
// L's value array, so a cache of factorizations over one pattern pays the
// structural analysis once. It is read-only after construction and safe
// for concurrent Factor calls.
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
	// ltRowPtr and ltColIdx are Lᵀ's structure (row j of Lᵀ is column j
	// of L, rows ascending, diagonal first); ltSrc[k] indexes L's value
	// array for Lᵀ's entry k.
	ltRowPtr []int32
	ltColIdx []int32
	ltSrc    []int32
	// target lists, column by column of L, the entry each pair of the
	// column's off-diagonal entries (p, q), p after q, updates: L's value
	// index of entry (row p, row q), or -1 where the zero-fill pattern
	// has no such entry and the update goes to the two diagonals.
	target []int32
}

// NewICPreconditioner computes the relaxed modified IC(0) factorization.
// It returns an error when the matrix is structurally unsuitable (no
// structural diagonal) or meets a non-positive pivot, the sign of a
// matrix that is not positive definite enough to factor.
func NewICPreconditioner(a *CSR) (*ICPreconditioner, error) {
	s, err := NewICSymbolic(a)
	if err != nil {
		return nil, err
	}
	return s.Factor(a)
}

// NewICSymbolic analyses the sparsity pattern of a for the zero-fill
// factorization: L takes the lower triangle of the pattern, rows sorted
// by column with the diagonal last. It errors when a row has no
// structural diagonal.
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

	// Lᵀ in CSR form: the columns of L the factorization eliminates.
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

	// Update targets: a column with m entries below its diagonal couples
	// m(m−1)/2 pairs.
	pairs := 0
	for j := 0; j < n; j++ {
		m := int(s.ltRowPtr[j+1]-s.ltRowPtr[j]) - 1
		pairs += m * (m - 1) / 2
	}
	s.target = make([]int32, 0, pairs)
	for j := 0; j < n; j++ {
		lo, hi := int(s.ltRowPtr[j])+1, int(s.ltRowPtr[j+1])
		for p := lo; p < hi; p++ {
			row := int(s.ltColIdx[p])
			cols := s.lColIdx[s.lRowPtr[row] : s.lRowPtr[row+1]-1]
			for q := lo; q < p; q++ {
				t := int32(-1)
				if k, ok := slices.BinarySearch(cols, s.ltColIdx[q]); ok {
					t = s.lRowPtr[row] + int32(k)
				}
				s.target = append(s.target, t)
			}
		}
	}
	return s, nil
}

// Factor computes the relaxed modified IC(0) factorization of a, which
// must have the pattern NewICSymbolic analysed. It errors on a different
// pattern and on a non-positive pivot (an indefinite matrix).
//
// The factorization is right-looking: column j of L is scaled by its
// pivot, then each pair of its entries L_pj·L_qj is subtracted from the
// entry (p, q) of the trailing matrix. Where the zero-fill pattern has no
// such entry, IC(0) would drop the update; here relaxation times it is
// subtracted from both diagonals (p, p) and (q, q) instead (Gustafsson's
// modified incomplete Cholesky), which keeps the factor's row sums close
// to A's and cuts CG's iteration count on the layered conduction
// matrices the thermal package solves.
func (s *ICSymbolic) Factor(a *CSR) (*ICPreconditioner, error) {
	if !s.matches(a) {
		return nil, fmt.Errorf("sparse: IC(0) factor: matrix pattern differs from the analysed one")
	}
	v := make([]float64, len(s.lSrc))
	for k, src := range s.lSrc {
		v[k] = a.values[src]
	}
	t := 0
	for j := 0; j < s.n; j++ {
		lo, hi := int(s.ltRowPtr[j]), int(s.ltRowPtr[j+1])
		dk := s.ltSrc[lo]
		d := v[dk]
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("sparse: IC(0) non-positive pivot %g at row %d (matrix not SPD enough)", d, j)
		}
		d = math.Sqrt(d)
		v[dk] = d
		for k := lo + 1; k < hi; k++ {
			v[s.ltSrc[k]] /= d
		}
		for p := lo + 1; p < hi; p++ {
			lp := v[s.ltSrc[p]]
			dp := s.lRowPtr[s.ltColIdx[p]+1] - 1
			v[dp] -= lp * lp
			for q := lo + 1; q < p; q++ {
				u := lp * v[s.ltSrc[q]]
				if k := s.target[t]; k >= 0 {
					v[k] -= u
				} else {
					u *= relaxation
					v[dp] -= u
					v[s.lRowPtr[s.ltColIdx[q]+1]-1] -= u
				}
				t++
			}
		}
	}
	return &ICPreconditioner{n: s.n, lRowPtr: s.lRowPtr, lColIdx: s.lColIdx, lValues: v}, nil
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
	// Backward solve Lᵀ·dst = y by columns of Lᵀ, which are the rows of
	// L: once dst[i] is known, its multiples leave the rows above it.
	for i := p.n - 1; i >= 0; i-- {
		lo, hi := int(p.lRowPtr[i]), int(p.lRowPtr[i+1])
		x := y[i] / p.lValues[hi-1]
		dst[i] = x
		for k := lo; k < hi-1; k++ {
			y[p.lColIdx[k]] -= p.lValues[k] * x
		}
	}
}

// CGPrecond solves A·x = b, for a symmetric A, with the conjugate
// gradient method under the factorization m; it neither factors nor
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
