package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without reaching the requested tolerance.
var ErrNoConvergence = errors.New("sparse: iterative solver did not converge")

// ErrSingular is returned when a direct factorization encounters a pivot
// that is numerically zero.
var ErrSingular = errors.New("sparse: matrix is singular to working precision")

// SolveOptions configures the iterative solvers.
type SolveOptions struct {
	// Tol is the relative residual tolerance ‖b−Ax‖₂ ≤ Tol·‖b‖₂.
	// Zero selects the default 1e-10.
	Tol float64
	// MaxIter caps the number of iterations. Zero selects 4·n.
	MaxIter int
	// X0 is an optional warm-start; nil starts from zero.
	X0 []float64
	// Precond is the IC(0) factorization SolveAuto's first rung runs CG
	// under. SolveAuto never factors: callers own their factorizations
	// (thermal caches one per ω-slice). Nil skips to Jacobi CG.
	Precond *ICPreconditioner
	// Work optionally supplies reusable solver work arrays so repeated
	// solves stay allocation-light. A Workspace must not be shared by
	// concurrent solves.
	Work *Workspace
}

// Workspace holds the per-solve scratch vectors of the CG-family solvers
// so callers that solve in a loop (or from a sync.Pool) avoid per-call
// allocation. The zero value is ready to use; vectors grow on demand and
// are retained across solves.
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

// CG solves A·x = b with the Jacobi-preconditioned conjugate gradient
// method. A must be symmetric; positive definiteness is required for
// guaranteed convergence, and CG stops on non-positive curvature
// (pᵀAp ≤ 0) rather than run on into the stationary point of an
// indefinite system. The result is written into a new slice.
func CG(a *CSR, b []float64, opts SolveOptions) ([]float64, Stats, error) {
	n := a.N()
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("sparse: rhs length %d does not match matrix dimension %d", len(b), n)
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

	// Jacobi preconditioner M = diag(A).
	invDiag := ws.pre
	for i := range invDiag {
		d := a.At(i, i)
		if d == 0 {
			return nil, Stats{}, fmt.Errorf("sparse: zero diagonal at row %d; Jacobi preconditioner undefined", i)
		}
		invDiag[i] = 1 / d
	}

	z, p, ap := ws.z, ws.p, ws.ap
	for i := range z {
		z[i] = invDiag[i] * r[i]
	}
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
		for i := range z {
			z[i] = invDiag[i] * r[i]
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, Stats{Iterations: maxIter, Residual: Norm2(r) / bnorm}, ErrNoConvergence
}

// LU is a dense LU factorization with partial pivoting. It solves the
// small dense systems of the optimizers (QP KKT, interior-point Newton)
// and the ROM's reduced system; the sparse thermal systems go through
// SolveAuto.
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

// SolveAuto solves A·x = b for a symmetric A, the only kind the thermal
// package builds, down a two-rung ladder. Rung 1 is CG under the caller's
// IC(0) factorization (SolveOptions.Precond); rung 2, and the only rung
// when Precond is nil, is Jacobi CG. Both rungs stop on non-positive
// curvature (pᵀAp ≤ 0). Near thermal runaway the matrix turns
// indefinite, and the point CG would converge to there is the unstable
// fixed point, not a steady state, so an indefinite system fails both
// rungs and the thermal package reports runaway. When both rungs fail,
// SolveAuto returns Jacobi CG's error, which wraps ErrNoConvergence. It
// neither factors nor checks symmetry.
//
//oftec:allocok returns a freshly allocated solution vector by contract; iteration scratch comes from SolveOptions.Work
func SolveAuto(a *CSR, b []float64, opts SolveOptions) ([]float64, Stats, error) {
	if opts.Precond != nil {
		if x, st, err := CGPrecond(a, b, opts.Precond, opts); err == nil {
			return x, st, nil
		}
	}
	return CG(a, b, opts)
}
