package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is wrapped by every failure of a CG solve on a
// well-formed system: an exhausted iteration budget, a breakdown on
// non-positive curvature, or a missing factorization.
var ErrNoConvergence = errors.New("sparse: iterative solver did not converge")

// ErrSingular is returned when a direct factorization encounters a pivot
// that is numerically zero.
var ErrSingular = errors.New("sparse: matrix is singular to working precision")

// SolveOptions configures CGPrecond and its lockstep twin CGPrecondBatch.
type SolveOptions struct {
	// Tol is the relative residual tolerance ‖b−Ax‖₂ ≤ Tol·‖b‖₂.
	// Zero selects the default 1e-10.
	Tol float64
	// MaxIter caps the number of iterations. Zero selects 4·n.
	MaxIter int
	// X0 is an optional warm-start; nil starts from zero.
	X0 []float64
	// Work optionally supplies reusable solver work arrays so repeated
	// solves stay allocation-light. A Workspace must not be shared by
	// concurrent solves.
	Work *Workspace
}

// Workspace holds the per-solve scratch vectors of CGPrecond so callers
// that solve in a loop (or from a sync.Pool) avoid per-call allocation.
// The zero value is ready to use; vectors grow on demand and are retained
// across solves.
type Workspace struct {
	r, z, p, ap, pre []float64
}

// grow sizes every scratch vector to length n.
func (w *Workspace) grow(n int) {
	grow1 := func(v []float64) []float64 {
		if cap(v) < n {
			return make([]float64, n)
		}
		return v[:n]
	}
	w.r = grow1(w.r)
	w.z = grow1(w.z)
	w.p = grow1(w.p)
	w.ap = grow1(w.ap)
	w.pre = grow1(w.pre)
}

// work returns the caller's workspace or a fresh one, sized to n.
func (o SolveOptions) work(n int) *Workspace {
	w := o.Work
	if w == nil {
		w = &Workspace{}
	}
	w.grow(n)
	return w
}

func (o SolveOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-10
	}
	return o.Tol
}

func (o SolveOptions) maxIter(n int) int {
	if o.MaxIter <= 0 {
		return 4 * n
	}
	return o.MaxIter
}

// Stats reports how a solve went.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
}

// LU is a dense LU factorization with partial pivoting. It solves the
// small dense systems of the optimizers (QP KKT, interior-point Newton)
// and the ROM's reduced system; the sparse thermal systems go through
// CGPrecond.
type LU struct {
	n   int
	lu  [][]float64
	piv []int
}

// NewLU factorizes the dense matrix a (row-major slices). a is not modified.
func NewLU(a [][]float64) (*LU, error) {
	n := len(a)
	lu := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range lu {
		lu[i] = buf[i*n : (i+1)*n]
		if len(a[i]) != n {
			return nil, fmt.Errorf("sparse: dense matrix row %d has length %d, want %d", i, len(a[i]), n)
		}
		copy(lu[i], a[i])
	}
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	f := &LU{n: n, lu: lu, piv: piv}

	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		max := math.Abs(lu[col][col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu[r][col]); a > max {
				max, p = a, r
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, col)
		}
		if p != col {
			lu[p], lu[col] = lu[col], lu[p]
			piv[p], piv[col] = piv[col], piv[p]
		}
		pivVal := lu[col][col]
		for r := col + 1; r < n; r++ {
			m := lu[r][col] / pivVal
			lu[r][col] = m
			if m == 0 {
				continue
			}
			rowR, rowC := lu[r], lu[col]
			for c := col + 1; c < n; c++ {
				rowR[c] -= m * rowC[c]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b using the stored factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("sparse: rhs length %d does not match matrix dimension %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	for i := 0; i < f.n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 1; i < f.n; i++ {
		row := f.lu[i]
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu[i]
		var s float64
		for j := i + 1; j < f.n; j++ {
			s += row[j] * x[j]
		}
		x[i] = (x[i] - s) / row[i]
	}
	return x, nil
}
