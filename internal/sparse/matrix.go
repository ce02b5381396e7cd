// Package sparse implements the sparse linear algebra needed by the thermal
// simulator: compressed sparse row (CSR) matrices assembled from coordinate
// triplets, a relaxed modified IC(0) factorization (zero fill, with the
// fill it drops moved onto the diagonal; ICPrefix eliminates the leading
// columns once for matrices that differ only past them), conjugate
// gradients under it
// (CGPrecond, and CGPrecondBatch's lockstep multi-RHS variant), and a
// dense LU for the optimizers' small systems and for cross-checking CG in
// tests.
//
// The thermal system matrix is a conduction Laplacian plus diagonal shifts
// contributed by linear-in-temperature heat sources (Peltier terms and the
// Taylor-linearized leakage). The Laplacian part is symmetric positive
// definite; the shifts keep the matrix symmetric, but near thermal runaway
// they make it indefinite. CG under the caller's factorization is
// the one solver of every thermal system: it answers a positive definite
// system, and an indefinite one either fails to factor or stops CG on
// non-positive curvature, a failure the thermal package reports as
// runaway with no second solve.
//
// One CG iteration is one SpMV, one preconditioner apply and a few vector
// passes, so their cost is each thermal solve's cost. The factor is kept
// square-root-free, as L̃·D·L̃ᵀ with a unit lower-triangular L̃, so neither
// triangular sweep divides or multiplies on its dependency chain. pᵀAp is
// summed inside the SpMV and ‖r‖² inside the x and r updates, in the
// order separate passes would sum them. The SpMV and both sweeps walk a
// row plan frozen with their pattern: runs of consecutive rows with one
// stored-entry count, each run of a common count with a loop body
// unrolled for it, so those rows end on no loop exit to mispredict.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Builder accumulates coordinate-format (row, col, value) triplets and
// produces a CSR matrix. Duplicate entries are summed, which makes the
// builder convenient for finite-volume assembly where each cell face
// contributes to four matrix entries.
type Builder struct {
	n       int
	rows    []int32
	cols    []int32
	vals    []float64
	invalid error
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		return &Builder{invalid: fmt.Errorf("sparse: matrix dimension %d must be positive", n)}
	}
	return &Builder{n: n}
}

// Add accumulates v into entry (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if b.invalid != nil {
		return
	}
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		b.invalid = fmt.Errorf("sparse: entry (%d,%d) outside %d×%d matrix", i, j, b.n, b.n)
		return
	}
	if v == 0 {
		return
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v)
}

// AddDiag accumulates v into the diagonal entry (i, i).
func (b *Builder) AddDiag(i int, v float64) { b.Add(i, i, v) }

// Build sorts and merges the accumulated triplets into a CSR matrix.
func (b *Builder) Build() (*CSR, error) {
	return b.build(false)
}

// BuildWithDiagonal is Build with a structurally stored diagonal entry in
// every row, zero-valued where no triplet contributed. Assembly paths that
// later patch per-evaluation diagonal shifts into a shared sparsity
// pattern (see CSR.WithValues) build their pattern this way so every
// diagonal slot exists even on rows the base couplings missed.
func (b *Builder) BuildWithDiagonal() (*CSR, error) {
	return b.build(true)
}

func (b *Builder) build(forceDiag bool) (*CSR, error) {
	if b.invalid != nil {
		return nil, b.invalid
	}
	if forceDiag {
		// Zero-valued diagonal triplets merge into existing diagonals and
		// materialize the missing ones. Add is bypassed because it drops
		// zero values.
		for i := 0; i < b.n; i++ {
			b.rows = append(b.rows, int32(i))
			b.cols = append(b.cols, int32(i))
			b.vals = append(b.vals, 0)
		}
	}
	nnz := len(b.vals)
	order := make([]int, nnz)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, c int) bool {
		ia, ic := order[a], order[c]
		if b.rows[ia] != b.rows[ic] {
			return b.rows[ia] < b.rows[ic]
		}
		return b.cols[ia] < b.cols[ic]
	})

	m := &CSR{
		n:      b.n,
		rowPtr: make([]int32, b.n+1),
	}
	m.colIdx = make([]int32, 0, nnz)
	m.values = make([]float64, 0, nnz)

	for k := 0; k < nnz; {
		idx := order[k]
		r, c := b.rows[idx], b.cols[idx]
		sum := b.vals[idx]
		k++
		for k < nnz {
			idx2 := order[k]
			if b.rows[idx2] != r || b.cols[idx2] != c {
				break
			}
			sum += b.vals[idx2]
			k++
		}
		m.colIdx = append(m.colIdx, c)
		m.values = append(m.values, sum)
		m.rowPtr[r+1]++
	}
	for i := 0; i < b.n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	m.runs = planRows(m.rowPtr, spmvMinLen, spmvMaxLen)
	return m, nil
}

// CSR is a compressed-sparse-row matrix. The sparsity pattern (rowPtr,
// colIdx) and its row plan are immutable once built; the value array is
// immutable for matrices from Build, but matrices created with WithValues
// share the pattern while owning a caller-managed value array that may be
// rewritten between solves (the patched-assembly hot path).
type CSR struct {
	n      int
	rowPtr []int32
	colIdx []int32
	values []float64
	runs   []rowRun // the row plan MulVec walks
}

// The SpMV's unrolled row lengths: the layered conduction matrices of the
// thermal package store 3 to 8 entries in most rows (a diagonal, up to
// four in-plane neighbours and the planes above and below); at paper
// resolution these lengths cover 1,777 of 1,938 rows.
const (
	spmvMinLen = 3
	spmvMaxLen = 8
)

// rowRun is a maximal run of consecutive rows [lo, hi) that one kernel
// loop body walks: an unrolled body when every row of the run stores
// length entries, or the plain row loop when length is 0 (rows of any
// length the kernel does not unroll, empty rows included).
type rowRun struct {
	lo, hi, length int32
}

// planRows groups the rows of a pattern into runs by stored-entry count,
// in row order, giving the rows that store minLen to maxLen entries to
// unrolled bodies; a kernel freezes the plan with the pattern. The plain
// row loop's inner-loop exit is a branch whose outcome changes with the
// row length and mispredicts at the end of most rows; an unrolled body
// has none, and the one branch per run predicts as well as the run is
// long.
func planRows(rowPtr []int32, minLen, maxLen int32) []rowRun {
	var runs []rowRun
	for i := 0; i+1 < len(rowPtr); i++ {
		length := rowPtr[i+1] - rowPtr[i]
		if length < minLen || length > maxLen {
			length = 0
		}
		if k := len(runs) - 1; k >= 0 && runs[k].length == length {
			runs[k].hi++
			continue
		}
		runs = append(runs, rowRun{lo: int32(i), hi: int32(i + 1), length: length})
	}
	return slices.Clip(runs)
}

// N returns the matrix dimension.
func (m *CSR) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.values) }

// At returns entry (i, j); absent entries are zero. It is O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		return 0
	}
	lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
	cols := m.colIdx[lo:hi]
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return m.values[lo+k]
	}
	return 0
}

// MulVec computes dst = m·x. dst and x must both have length N and must not
// alias each other.
//
//oftec:hotpath
func (m *CSR) MulVec(dst, x []float64) { m.mulVecDot(dst, x) }

// mulVecDot computes dst = m·x along the row plan and returns xᵀ·dst, the
// pᵀAp of a CG iteration, taken in the same pass. Every row sums its
// entries in stored order from zero, as the plain row loop does, and the
// dot product sums in ascending row order, as Dot does, so the result
// bits match a plain row loop followed by Dot. MulVec shares this kernel
// and drops the dot, so each row length has one loop body.
//
//oftec:hotpath
func (m *CSR) mulVecDot(dst, x []float64) float64 {
	rp, cols, vals := m.rowPtr, m.colIdx, m.values
	var d float64
	for _, run := range m.runs {
		lo, hi := int(run.lo), int(run.hi)
		switch run.length {
		case 3:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+3:k+3], cols[k:k+3:k+3]
				s := 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]]
				dst[i] = s
				d += x[i] * s
			}
		case 4:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+4:k+4], cols[k:k+4:k+4]
				s := 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]]
				dst[i] = s
				d += x[i] * s
			}
		case 5:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+5:k+5], cols[k:k+5:k+5]
				s := 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]]
				dst[i] = s
				d += x[i] * s
			}
		case 6:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+6:k+6], cols[k:k+6:k+6]
				s := 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]] +
					v[5]*x[c[5]]
				dst[i] = s
				d += x[i] * s
			}
		case 7:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+7:k+7], cols[k:k+7:k+7]
				s := 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]] +
					v[5]*x[c[5]] + v[6]*x[c[6]]
				dst[i] = s
				d += x[i] * s
			}
		case 8:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+8:k+8], cols[k:k+8:k+8]
				s := 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]] +
					v[5]*x[c[5]] + v[6]*x[c[6]] + v[7]*x[c[7]]
				dst[i] = s
				d += x[i] * s
			}
		default:
			for i := lo; i < hi; i++ {
				var s float64
				for k := int(rp[i]); k < int(rp[i+1]); k++ {
					s += vals[k] * x[cols[k]]
				}
				dst[i] = s
				d += x[i] * s
			}
		}
	}
	return d
}

// RowPtr returns the CSR row-pointer entry i (0 ≤ i ≤ N). Together with
// ColAt and ValAt it exposes read-only iteration over stored entries for
// callers that need to rebuild or augment a matrix.
func (m *CSR) RowPtr(i int) int32 { return m.rowPtr[i] }

// ColAt returns the column index of stored entry k.
func (m *CSR) ColAt(k int) int { return int(m.colIdx[k]) }

// ValAt returns the value of stored entry k.
func (m *CSR) ValAt(k int) float64 { return m.values[k] }

// Residual computes dst = b - m·x, returning the infinity norm of dst.
//
//oftec:hotpath
func (m *CSR) Residual(dst, x, b []float64) float64 {
	m.MulVec(dst, x)
	var norm float64
	for i := range dst {
		dst[i] = b[i] - dst[i]
		if a := math.Abs(dst[i]); a > norm {
			norm = a
		}
	}
	return norm
}

// IsSymmetric reports whether the matrix is symmetric to within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.n; i++ {
		lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
		for k := lo; k < hi; k++ {
			j := int(m.colIdx[k])
			if j <= i {
				continue
			}
			if math.Abs(m.values[k]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// WithValues returns a matrix sharing the receiver's sparsity pattern
// with the given value array, which the caller owns and may rewrite
// between solves. len(values) must equal NNZ().
func (m *CSR) WithValues(values []float64) (*CSR, error) {
	if len(values) != len(m.values) {
		return nil, fmt.Errorf("sparse: value array length %d does not match nnz %d", len(values), len(m.values))
	}
	return &CSR{n: m.n, rowPtr: m.rowPtr, colIdx: m.colIdx, values: values, runs: m.runs}, nil
}

// CopyValues copies the matrix's value array into dst, which must have
// length NNZ(). It is the O(nnz) "numeric reset" of a patched assembly:
// copy the base values, then patch the per-evaluation slots in place.
func (m *CSR) CopyValues(dst []float64) error {
	if len(dst) != len(m.values) {
		return fmt.Errorf("sparse: destination length %d does not match nnz %d", len(dst), len(m.values))
	}
	copy(dst, m.values)
	return nil
}

// DiagIndices returns, for each row, the index into the value array of
// the stored diagonal entry. It errors on rows without a structural
// diagonal (build the pattern with BuildWithDiagonal to guarantee one).
// Assembly paths record these indices once so per-evaluation diagonal
// patches are O(1) per slot.
func (m *CSR) DiagIndices() ([]int32, error) {
	idx := make([]int32, m.n)
	for i := 0; i < m.n; i++ {
		lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
		found := false
		for k := lo; k < hi; k++ {
			if int(m.colIdx[k]) == i {
				idx[i] = int32(k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sparse: row %d has no stored diagonal entry", i)
		}
	}
	return idx, nil
}

// Dense expands the matrix into a row-major dense form, for tests that
// cross-check the sparse solvers against LU.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.n)
	buf := make([]float64, m.n*m.n)
	for i := range d {
		d[i] = buf[i*m.n : (i+1)*m.n]
	}
	for i := 0; i < m.n; i++ {
		lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
		for k := lo; k < hi; k++ {
			d[i][m.colIdx[k]] = m.values[k]
		}
	}
	return d
}

// Vector helpers.

// Dot returns the inner product of a and b.
//
//oftec:hotpath
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
//
//oftec:hotpath
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// NormInf returns the infinity norm of v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes y += alpha*x in place.
//
//oftec:hotpath
func AXPY(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Fill sets every element of v to x.
//
//oftec:hotpath
func Fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}
