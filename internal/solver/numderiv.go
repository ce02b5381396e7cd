package solver

import (
	"context"
	"fmt"
	"math"

	"oftec/internal/parallel"
)

// sliverSlope is the synthetic gradient magnitude used when finite
// differencing is impossible because the current point or both probes sit
// in the Infeasible region. It must be large enough to dominate genuine
// objective slopes (the scaled problems have O(1) spans) yet small enough
// that the BFGS curvature pairs built from it stay numerically sane —
// (Infeasible − fx)/h would be ~1e17 and wrecks the Hessian model.
const sliverSlope = 1e6

// fdRelStep is the finite-difference step as a fraction of the variable's
// range (Upper − Lower); on the solvers' unit-box scaled problems it is
// the step itself.
const fdRelStep = 1e-5

// quantRelStep is the minimum finite-difference probe separation, relative
// to the variable's magnitude scale max(1, |Lower|, |Upper|), that keeps
// two probes on distinct keys of an evaluation cache quantized to a 1e-9
// coordinate grid (core's memo rounds every coordinate to
// round(v·1e9)/1e9). Probes closer than the grid spacing alias to the same
// cache entry and the difference quotient collapses to an exact zero.
const quantRelStep = 2e-9

// minFDStep returns the absolute finite-difference floor for a variable
// with the given bounds, in the variable's own units.
func minFDStep(lo, hi float64) float64 {
	scale := math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	return quantRelStep * scale
}

// countedFunc evaluates at x through q, one of the problem's anchored
// copies (see probePairs), and adds the evaluations it spends to *evals.
// The pair scheduler hands every axis its own counter.
type countedFunc func(q *Problem, x []float64, evals *int) float64

// shifted returns a copy of x with coordinate i set to v.
func shifted(x []float64, i int, v float64) []float64 {
	xp := append([]float64(nil), x...)
	xp[i] = v
	return xp
}

// pair is one axis's central-difference probes x ± h·e_i: which of them
// are planned, and the values they came back with. h = 0 marks an axis
// with no probes.
type pair struct {
	h          float64
	up, down   bool
	fUp, fDown float64
}

// probePairs evaluates the planned probes of every axis around x through
// f, one task per axis on a pool of the given width (see
// Options.workers); width 1 is the serial loop. A task solves its upper
// probe through p, then its lower probe through p anchored on the upper
// probe's reflection (Problem.Near(x, xUp)): an evaluator that warm-starts
// from the anchor starts the lower probe from 2·T(x) − T(xUp), which is
// T(x − h·e_i) to first order. An upper probe that is not planned, lies
// outside the box or comes back Infeasible, or a lower probe outside the
// box, leaves the lower probe on p.
// Each axis counts its evaluations in its own slot, summed into *evals,
// so the total equals the serial count; the anchors depend on x and the
// plan alone, so when f answers a point independently of evaluation
// order the values are the same at every width. A panicking probe is
// re-raised on the caller's goroutine, where the serial loop would have
// panicked, so Fallback's stage recovery still sees it.
func (p *Problem) probePairs(f countedFunc, x []float64, pairs []pair, workers int, evals *int) {
	counts := make([]int, len(pairs))
	// No Options.Ctx here: the solvers honour cancellation at iteration
	// boundaries only, so a derivative, once started, is finished.
	err := parallel.ForEach(context.Background(), len(pairs), workers, func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("solver: finite-difference probe panicked: %v", r)
			}
		}()
		pr := &pairs[i]
		lower := p
		if pr.up {
			xUp := shifted(x, i, x[i]+pr.h)
			pr.fUp = f(p, xUp, &counts[i])
			if pr.down && pr.fUp < Infeasible && xUp[i] <= p.Upper[i] && x[i]-pr.h >= p.Lower[i] {
				lower = p.near(x, xUp)
			}
		}
		if pr.down {
			pr.fDown = f(lower, shifted(x, i, x[i]-pr.h), &counts[i])
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	for _, c := range counts {
		*evals += c
	}
}

// gradient approximates ∇f at x with central differences, falling back to
// one-sided differences at box edges or when a probe point evaluates to the
// Infeasible sentinel (e.g. probing into a thermal-runaway region). The
// step for variable i is h_i = fdRelStep·(Upper_i − Lower_i), floored at 1e-10
// and at gradMinStep_i when set. A pinned variable (Upper_i == Lower_i)
// gets a zero derivative without spending any evaluations. f counts and
// clamps its own evaluations ((*Problem).eval, for instance).
//
// It runs in three steps: plan every in-box probe, evaluate them pair by
// pair through probePairs on the given number of workers, then combine
// the values into difference quotients. When f is a pure function of its
// point, the result is the same at every width.
//
// When finite differencing degenerates, a synthetic slope of magnitude
// sliverSlope stands in for the unknown derivative:
//
//   - both probes infeasible (the iterate sits in a sliver of
//     feasibility): the slope points so that the descent direction −g
//     moves away from the nearer box bound, toward the interior;
//   - fx itself Infeasible with one usable probe: the slope points so
//     that −g moves toward the feasible probe (the raw one-sided quotient
//     would be ±(fProbe − 1e12)/h garbage).
func (p *Problem) gradient(f countedFunc, x []float64, fx float64, workers int, evals *int) []float64 {
	n := p.Dim()
	pairs := make([]pair, n)
	for i := range pairs {
		if p.pinned(i) {
			// Degenerate (pinned) bounds freeze this axis: no step can stay
			// inside the box, so the floored probes would both land
			// outside and the sliver branch would fabricate a ±sliverSlope
			// on a variable that cannot move, poisoning the BFGS curvature
			// pairs and every descent direction built from them. The only
			// honest derivative along a frozen axis is zero.
			continue
		}
		h := fdRelStep * (p.Upper[i] - p.Lower[i])
		if h < 1e-10 {
			h = 1e-10
		}
		if p.gradMinStep != nil && h < p.gradMinStep[i] {
			h = p.gradMinStep[i]
		}
		pairs[i] = pair{h: h, up: x[i]+h <= p.Upper[i], down: x[i]-h >= p.Lower[i]}
	}

	p.probePairs(f, x, pairs, workers, evals)

	g := make([]float64, n)
	for i, pr := range pairs {
		if p.pinned(i) {
			continue
		}
		usableHi := pr.up && pr.fUp < Infeasible
		usableLo := pr.down && pr.fDown < Infeasible
		switch {
		case usableHi && usableLo:
			g[i] = (pr.fUp - pr.fDown) / (2 * pr.h)
		case usableHi:
			if fx >= Infeasible {
				g[i] = -sliverSlope // descend toward the feasible upper probe
			} else {
				g[i] = (pr.fUp - fx) / pr.h
			}
		case usableLo:
			if fx >= Infeasible {
				g[i] = sliverSlope // descend toward the feasible lower probe
			} else {
				g[i] = (fx - pr.fDown) / pr.h
			}
		default:
			// Both probes infeasible: the point sits in a sliver of
			// feasibility. Signal steep ascent toward the nearer bound so
			// the descent direction −g pushes the iterate toward the
			// interior instead of stranding it (g = 0 froze this axis).
			if x[i]-p.Lower[i] <= p.Upper[i]-x[i] {
				g[i] = -sliverSlope
			} else {
				g[i] = sliverSlope
			}
		}
	}
	return g
}

// bfgsUpdate applies the damped BFGS update (Powell 1978) to the Hessian
// approximation B in place, keeping it positive definite:
//
//	s = xNew − xOld, y = ∇L(xNew) − ∇L(xOld)
//
// If sᵀy is too small relative to sᵀBs, y is blended with Bs.
func bfgsUpdate(b [][]float64, s, y []float64) {
	n := len(s)
	bs := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += b[i][j] * s[j]
		}
		bs[i] = sum
	}
	sBs := dot(s, bs)
	sy := dot(s, y)
	if sBs <= 0 {
		return // degenerate; skip update
	}
	theta := 1.0
	if sy < 0.2*sBs {
		theta = 0.8 * sBs / (sBs - sy)
	}
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		r[i] = theta*y[i] + (1-theta)*bs[i]
	}
	sr := dot(s, r)
	if sr <= 1e-14 {
		return
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i][j] += r[i]*r[j]/sr - bs[i]*bs[j]/sBs
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

func identity(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}
