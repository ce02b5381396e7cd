package solver

import (
	"math"
)

// TrustRegion minimizes the problem with a trust-region method, the third
// technique the paper experimented with. Inequality constraints are folded
// into a smooth quadratic penalty (with an escalating weight), and each
// step minimizes the BFGS quadratic model inside the intersection of an
// ∞-norm trust region and the box bounds — a small QP solved exactly by
// the same active-set enumeration the SQP uses. The trust radius adapts on
// the usual predicted-vs-actual reduction ratio.
func TrustRegion(p *Problem, x0 []float64, opts Options) (Report, error) {
	if err := p.Validate(); err != nil {
		return Report{}, err
	}
	n := p.Dim()
	evals := 0

	box, z := newUnitBox(p, x0, opts)

	penWeight := 1e3
	// penalized is the penalty objective through q, the box or one of its
	// anchored copies.
	penalized := func(q *Problem, z []float64, evals *int) float64 {
		f := q.eval(z, evals)
		if f >= Infeasible {
			return Infeasible
		}
		for i := range q.Cons {
			if v := q.evalCons(i, z, evals); v > 0 {
				f += penWeight * v * v
			}
		}
		if f > Infeasible {
			return Infeasible
		}
		return f
	}
	// penalizedProbe is a finite-difference probe of penalized: it counts
	// itself as one evaluation on top of the F and constraint evaluations
	// inside it.
	penalizedProbe := func(q *Problem, z []float64, evals *int) float64 {
		*evals++
		return clamp(penalized(q, z, evals))
	}
	// gradAnalytic assembles the exact penalized gradient from
	// Options.Grad and Options.ConsGrad: ∇φ_z = span∘(∇F + Σ_{c_i>0}
	// 2·penWeight·c_i·∇c_i). penWeight is read at call time, so
	// re-derivations after a penalty escalation see the new weight. Any
	// unavailable or declined piece returns nil, and the whole composite
	// falls back to finite differences.
	gradAnalytic := func(zz []float64) []float64 {
		x := box.toX(zz)
		g := box.objGrad(x)
		if g == nil {
			return nil
		}
		for i := range p.Cons {
			v := box.at.evalCons(i, x, &evals)
			if v <= 0 {
				continue
			}
			gc := box.consGradX(i, x)
			if gc == nil {
				return nil
			}
			box.addWeighted(g, gc, 2*penWeight*v)
		}
		return g
	}
	gradPen := func(zz []float64, fzz float64) []float64 {
		if g := gradAnalytic(zz); g != nil {
			return g
		}
		return box.gradient(penalizedProbe, zz, fzz, opts.workers(), &evals)
	}

	f := penalized(&box.Problem, z, &evals)
	g := gradPen(z, f)
	bmat := identity(n)
	delta := 0.25
	tol := opts.tol()

	report := Report{X: box.toX(z), F: f}
	for iter := 1; iter <= opts.maxIter(); iter++ {
		if opts.cancelled() {
			report.Stopped = StopCancelled
			break
		}
		report.Iterations = iter

		// QP: min ½dᵀBd + gᵀd s.t. |d_i| ≤ Δ and box.
		var rows [][]float64
		var rhs []float64
		for i := 0; i < n; i++ {
			up := make([]float64, n)
			up[i] = 1
			rows = append(rows, up)
			rhs = append(rhs, math.Min(delta, box.Upper[i]-z[i]))
			lo := make([]float64, n)
			lo[i] = -1
			rows = append(rows, lo)
			rhs = append(rhs, math.Min(delta, z[i]))
		}
		q := &qpProblem{b: bmat, g: g, a: rows, c: rhs}
		d, _, err := q.solve()
		if err != nil {
			// The trust-region subproblem itself failed; stop without a
			// stationarity claim.
			report.Stopped = StopRestored
			break
		}
		if norm2(d) < tol {
			report.Converged = true
			report.Stopped = StopConverged
			break
		}
		predicted := -(q.objective(d)) // model reduction
		zNew := make([]float64, n)
		for i := range zNew {
			zNew[i] = z[i] + d[i]
		}
		box.clampBox(zNew)
		fNew := penalized(&box.Problem, zNew, &evals)
		actual := f - fNew

		rho := 0.0
		if predicted > 0 {
			rho = actual / predicted
		}
		switch {
		case rho < 0.25:
			delta *= 0.5
		case rho > 0.75:
			delta = math.Min(2*delta, 1)
		}
		if rho > 1e-4 && fNew < f {
			box.anchor(zNew)
			gNew := gradPen(zNew, fNew)
			s := make([]float64, n)
			y := make([]float64, n)
			var stepInf float64
			for i := 0; i < n; i++ {
				s[i] = zNew[i] - z[i]
				y[i] = gNew[i] - g[i]
				stepInf = math.Max(stepInf, math.Abs(s[i]))
			}
			bfgsUpdate(bmat, s, y)
			z, f, g = zNew, fNew, gNew
			report.X = box.toX(z)
			report.F = box.at.eval(report.X, &evals)
			opts.trace(TraceRecord{
				Method: "trust", Iter: iter,
				X: append([]float64(nil), report.X...), F: f,
				MaxViolation: math.NaN(), StepNorm: stepInf, Alpha: math.NaN(),
			})
			if opts.StopWhen != nil && opts.StopWhen(report.X, report.F) {
				report.EarlyStopped = true
				report.Stopped = StopEarlyStopped
				break
			}
			// Escalate the penalty while the iterate stays infeasible.
			if box.at.maxViolation(report.X, &evals) > opts.tol() {
				penWeight = math.Min(penWeight*2, 1e9)
				f = penalized(&box.Problem, z, &evals)
				g = gradPen(z, f)
			}
		}
		if delta < tol/10 {
			report.Converged = true
			report.Stopped = StopConverged
			break
		}
	}
	if report.Stopped == StopUnset {
		report.Stopped = StopMaxIter
	}

	report.MaxViolation = box.at.maxViolation(report.X, &evals)
	report.FuncEvals = evals
	report.GradEvals = box.gradEvals
	return report, nil
}
