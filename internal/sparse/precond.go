package sparse

import (
	"fmt"
	"math"
	"slices"
)

// relaxation is the share of each fill entry the zero-fill pattern
// drops that the modified factorization moves onto the two diagonals the
// entry would have coupled. Full compensation (1) keeps the factor's row
// sums equal to A's, but it drives pivots toward zero on the thermal
// systems' weakly coupled slices: at paper resolution it fails to factor
// the default ω-slice below ω ≈ 2.38 rad/s, where plain IC(0) factors,
// and a slice that does not factor makes every point on it runaway.
// 0.95 keeps nearly all of its iteration savings and factors there.
const relaxation = 0.95

// ICPreconditioner is a relaxed modified incomplete Cholesky
// factorization M = L̃·D·L̃ᵀ of a symmetric positive-definite matrix, with
// the unit lower-triangular L̃ restricted to the sparsity pattern of the
// lower triangle of A (zero fill, as in IC(0)) and D diagonal. It is the
// square-root-free form of M = L·Lᵀ with L = L̃·D^½. Its structure arrays
// are shared with the ICSymbolic it was factored through; it owns only the
// factor's values, and is read-only once built.
type ICPreconditioner struct {
	n int
	// The factor in CSR layout (rows sorted by column, diagonal last):
	// lValues holds L̃'s off-diagonal entries, and 1/d_i in row i's
	// diagonal slot, where L̃'s unit diagonal needs no storage. The
	// backward solve reads the rows as the columns of L̃ᵀ.
	lRowPtr []int32
	lColIdx []int32
	lValues []float64
	runs    []rowRun // the row plan both sweeps walk
}

// The triangular sweeps' unrolled row lengths, diagonal slot included:
// a row of the thermal systems' factor stores 1 to 4 entries left of its
// diagonal (its lower in-plane neighbours and the plane below); at paper
// resolution lengths 2 to 5 cover 1,798 of 1,938 rows.
const (
	sweepMinLen = 2
	sweepMaxLen = 5
)

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
	// array for L's entry k; runs is the row plan of L's pattern.
	lRowPtr []int32
	lColIdx []int32
	lSrc    []int32
	runs    []rowRun
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
	s.runs = planRows(s.lRowPtr, sweepMinLen, sweepMaxLen)

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
// pattern and on a non-positive pivot (an indefinite matrix). It is the
// factorization through the empty prefix: every column is eliminated
// here.
//
// The factorization is right-looking: column j's pivot d is the trailing
// diagonal entry (j, j), column j of L̃ is column j of the trailing matrix
// divided by d, and each pair of its entries subtracts
// a_pj·a_qj/d = a_pj·L̃_qj from the entry (p, q) of the trailing matrix.
// Where the zero-fill pattern has no such entry, IC(0) would drop the
// update; here relaxation times it is subtracted from both diagonals
// (p, p) and (q, q) instead (Gustafsson's modified incomplete Cholesky),
// which keeps the factor's row sums close to A's and cuts CG's iteration
// count on the layered conduction matrices the thermal package solves.
// The pivots are those of the L·Lᵀ form (d_j = L_jj²), and the factor
// takes no square root.
func (s *ICSymbolic) Factor(a *CSR) (*ICPreconditioner, error) {
	return (&ICPrefix{s: s}).Factor(a)
}

// ICPrefix is the elimination of a factorization's leading columns,
// shared by every matrix on the analysed pattern that agrees with the one
// it was built from outside the trailing block: the entries whose column
// (and so whose row) is at or past the split. Those leading columns never
// read the trailing block, so their values are final once, and the
// updates they make into it are recorded in order. Factor then pays only
// for the trailing block: each of its entries receives the same
// subtractions in the same order as under ICSymbolic.Factor, so every
// factor is bitwise equal to ICSymbolic.Factor's. It is read-only after
// construction and safe for concurrent Factor calls.
type ICPrefix struct {
	s     *ICSymbolic
	split int
	// pairs is the index into s.target of the first trailing column's
	// update pairs.
	pairs int
	// vals holds the factor's values with the leading columns final (nil
	// for the empty prefix); tape holds the leading columns' updates into
	// the trailing block, in the order the elimination made them.
	vals []float64
	tape []icUpdate
}

// icUpdate is one recorded subtraction v[k] −= u.
type icUpdate struct {
	k int32
	u float64
}

// Prefix eliminates the first split columns of a (0 ≤ split ≤ N), for
// Factor to finish on any matrix that agrees with a outside the trailing
// block. It errors on a different pattern, on a split out of range, and
// on a non-positive pivot among the leading columns: ICSymbolic.Factor
// fails with that same error on every matrix the prefix would serve.
func (s *ICSymbolic) Prefix(a *CSR, split int) (*ICPrefix, error) {
	if split < 0 || split > s.n {
		return nil, fmt.Errorf("sparse: IC(0) prefix split %d outside [0, %d]", split, s.n)
	}
	v, err := (&ICPrefix{s: s}).load(a)
	if err != nil {
		return nil, err
	}
	p := &ICPrefix{s: s, split: split, vals: v}
	for j := 0; j < split; j++ {
		p.tape = s.trailingUpdates(p.tape, v, j, p.pairs, int32(split))
		if p.pairs, err = s.eliminate(v, j, j+1, p.pairs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Factor finishes the factorization of a, which must have the analysed
// pattern and agree with the prefix's matrix on the leading columns (it
// is not checked): it copies the prefix's values, loads a's trailing
// entries, replays the recorded updates, and eliminates the trailing
// columns. It errors like ICSymbolic.Factor, on a different pattern and
// on a non-positive pivot in the trailing block.
func (p *ICPrefix) Factor(a *CSR) (*ICPreconditioner, error) {
	s := p.s
	v, err := p.load(a)
	if err != nil {
		return nil, err
	}
	if _, err := s.eliminate(v, p.split, s.n, p.pairs); err != nil {
		return nil, err
	}
	return &ICPreconditioner{n: s.n, lRowPtr: s.lRowPtr, lColIdx: s.lColIdx, lValues: v, runs: s.runs}, nil
}

// load returns a fresh value array for factoring a past the prefix: the
// prefix's values, a's entries in the trailing block, and the recorded
// updates replayed onto them.
func (p *ICPrefix) load(a *CSR) ([]float64, error) {
	s := p.s
	if !s.matches(a) {
		return nil, fmt.Errorf("sparse: IC(0) factor: matrix pattern differs from the analysed one")
	}
	v := make([]float64, len(s.lSrc))
	copy(v, p.vals)
	// The trailing block's entries sit in the rows from the split on.
	for k := int(s.lRowPtr[p.split]); k < len(v); k++ {
		if int(s.lColIdx[k]) >= p.split {
			v[k] = a.values[s.lSrc[k]]
		}
	}
	for _, u := range p.tape {
		v[u.k] -= u.u
	}
	return v, nil
}

// eliminate runs the right-looking elimination over columns [from, to) of
// the factor values v, whose update pairs start at s.target[t], and
// returns the index of the pair after the last. It errors on a
// non-positive pivot, naming the column. Every update is rounded before
// it is subtracted (the explicit conversions forbid a fused
// multiply-subtract), so an update trailingUpdates records replays to
// the bits this loop subtracts.
func (s *ICSymbolic) eliminate(v []float64, from, to, t int) (int, error) {
	for j := from; j < to; j++ {
		lo, hi := int(s.ltRowPtr[j]), int(s.ltRowPtr[j+1])
		dk := s.ltSrc[lo]
		d := v[dk]
		if d <= 0 || math.IsNaN(d) {
			return t, fmt.Errorf("sparse: IC(0) non-positive pivot %g at row %d (matrix not SPD enough)", d, j)
		}
		dinv := 1 / d
		v[dk] = dinv
		// Entry p of the column is scaled once its pairs are done, so the
		// entries q before it already hold L̃_qj.
		for p := lo + 1; p < hi; p++ {
			sp := s.ltSrc[p]
			ap := v[sp]
			lp := ap * dinv
			dp := s.lRowPtr[s.ltColIdx[p]+1] - 1
			v[dp] -= float64(lp * ap)
			for q := lo + 1; q < p; q++ {
				u := float64(ap * v[s.ltSrc[q]])
				if k := s.target[t]; k >= 0 {
					v[k] -= u
				} else {
					u = float64(u * relaxation)
					v[dp] -= u
					v[s.lRowPtr[s.ltColIdx[q]+1]-1] -= u
				}
				t++
			}
			v[sp] = lp
		}
	}
	return t, nil
}

// trailingUpdates appends to tape, in the order eliminate makes them, the
// updates that eliminating column j (its pairs starting at s.target[t])
// will make into columns at or past stop, reading v just before that
// elimination. The column's entries are unscaled then, so each L̃_qj is
// formed here exactly as eliminate forms and stores it.
func (s *ICSymbolic) trailingUpdates(tape []icUpdate, v []float64, j, t int, stop int32) []icUpdate {
	lo, hi := int(s.ltRowPtr[j]), int(s.ltRowPtr[j+1])
	dinv := 1 / v[s.ltSrc[lo]]
	for p := lo + 1; p < hi; p++ {
		rp := s.ltColIdx[p]
		if rp < stop {
			// Rows ascend down the column: none of p's pairs reaches past
			// stop.
			t += p - lo - 1
			continue
		}
		ap := v[s.ltSrc[p]]
		dp := s.lRowPtr[rp+1] - 1
		tape = append(tape, icUpdate{k: dp, u: float64(float64(ap*dinv) * ap)})
		for q := lo + 1; q < p; q++ {
			u := float64(ap * float64(v[s.ltSrc[q]]*dinv))
			rq := s.ltColIdx[q]
			if k := s.target[t]; k >= 0 {
				if rq >= stop {
					tape = append(tape, icUpdate{k: k, u: u})
				}
			} else {
				u = float64(u * relaxation)
				tape = append(tape, icUpdate{k: dp, u: u})
				if rq >= stop {
					tape = append(tape, icUpdate{k: s.lRowPtr[rq+1] - 1, u: u})
				}
			}
			t++
		}
	}
	return tape
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

// ApplyScratch computes dst = (L̃·D·L̃ᵀ)⁻¹ · r via one forward and one
// backward triangular solve, through a caller-provided intermediate
// vector (length N). The factor arrays are read-only after construction,
// so a cached ICPreconditioner is safe for concurrent solves as long as
// each solve brings its own scratch (see Workspace).
//
// L̃ has a unit diagonal, so neither sweep divides or multiplies on its
// dependency chain: the forward sweep's y_i = r_i − Σ_k L̃_ik·y_k feeds the
// next rows directly, and D⁻¹ scales y_i into dst off the chain. The
// backward sweep x_i = w_i − Σ_j L̃_ji·x_j runs by columns of L̃ᵀ, which are
// the rows of L̃: once dst[i] is final, its multiples leave the rows above
// it. Both sweeps walk the factor's row plan, each row in stored order.
//
//oftec:hotpath
func (p *ICPreconditioner) ApplyScratch(dst, r, scratch []float64) {
	y := scratch
	rp, cols, vals := p.lRowPtr, p.lColIdx, p.lValues
	// Forward solve L̃·y = r (rows of L̃ are sorted with the diagonal slot
	// last), and w = D⁻¹·y into dst.
	for _, run := range p.runs {
		lo, hi := int(run.lo), int(run.hi)
		switch run.length {
		case 2:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+2:k+2], cols[k:k+1:k+1]
				s := r[i] - v[0]*y[c[0]]
				y[i] = s
				dst[i] = s * v[1]
			}
		case 3:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+3:k+3], cols[k:k+2:k+2]
				s := r[i] - v[0]*y[c[0]] - v[1]*y[c[1]]
				y[i] = s
				dst[i] = s * v[2]
			}
		case 4:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+4:k+4], cols[k:k+3:k+3]
				s := r[i] - v[0]*y[c[0]] - v[1]*y[c[1]] - v[2]*y[c[2]]
				y[i] = s
				dst[i] = s * v[3]
			}
		case 5:
			for i := lo; i < hi; i++ {
				k := int(rp[i])
				v, c := vals[k:k+5:k+5], cols[k:k+4:k+4]
				s := r[i] - v[0]*y[c[0]] - v[1]*y[c[1]] - v[2]*y[c[2]] - v[3]*y[c[3]]
				y[i] = s
				dst[i] = s * v[4]
			}
		default:
			for i := lo; i < hi; i++ {
				s := r[i]
				last := int(rp[i+1]) - 1
				for k := int(rp[i]); k < last; k++ {
					s -= vals[k] * y[cols[k]]
				}
				y[i] = s
				dst[i] = s * vals[last]
			}
		}
	}
	// Backward solve L̃ᵀ·dst = w in place, runs and rows in reverse.
	for ri := len(p.runs) - 1; ri >= 0; ri-- {
		lo, hi := int(p.runs[ri].lo), int(p.runs[ri].hi)
		switch p.runs[ri].length {
		case 2:
			for i := hi - 1; i >= lo; i-- {
				k := int(rp[i])
				dst[cols[k]] -= vals[k] * dst[i]
			}
		case 3:
			for i := hi - 1; i >= lo; i-- {
				k := int(rp[i])
				v, c := vals[k:k+2:k+2], cols[k:k+2:k+2]
				x := dst[i]
				dst[c[0]] -= v[0] * x
				dst[c[1]] -= v[1] * x
			}
		case 4:
			for i := hi - 1; i >= lo; i-- {
				k := int(rp[i])
				v, c := vals[k:k+3:k+3], cols[k:k+3:k+3]
				x := dst[i]
				dst[c[0]] -= v[0] * x
				dst[c[1]] -= v[1] * x
				dst[c[2]] -= v[2] * x
			}
		case 5:
			for i := hi - 1; i >= lo; i-- {
				k := int(rp[i])
				v, c := vals[k:k+4:k+4], cols[k:k+4:k+4]
				x := dst[i]
				dst[c[0]] -= v[0] * x
				dst[c[1]] -= v[1] * x
				dst[c[2]] -= v[2] * x
				dst[c[3]] -= v[3] * x
			}
		default:
			for i := hi - 1; i >= lo; i-- {
				x := dst[i]
				last := int(rp[i+1]) - 1
				for k := int(rp[i]); k < last; k++ {
					dst[cols[k]] -= vals[k] * x
				}
			}
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
	x, p, r, ap = x[:n], p[:n], r[:n], ap[:n]
	for it := 1; it <= maxIter; it++ {
		// pᵀAp comes with the product, and ‖r‖² with the x and r updates;
		// each sums in ascending index order, as Dot and Norm2 do.
		pap := a.mulVecDot(ap, p)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, Stats{Iterations: it}, fmt.Errorf("%w: CG breakdown (pᵀAp=%g)", ErrNoConvergence, pap)
		}
		alpha := rz / pap
		var rr float64
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			rr += r[i] * r[i]
		}
		res := math.Sqrt(rr) / bnorm
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
