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

	span := make([]float64, n)
	for i := range span {
		span[i] = p.Upper[i] - p.Lower[i]
		if span[i] == 0 {
			span[i] = 1
		}
	}
	toX := func(z []float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = p.Lower[i] + z[i]*span[i]
		}
		p.clampBox(x)
		return x
	}

	z := make([]float64, n)
	for i := range z {
		z[i] = math.Min(1, math.Max(0, (x0[i]-p.Lower[i])/span[i]))
	}

	// at is the problem anchored on the incumbent (see Problem.Near);
	// every evaluation below goes through it.
	var at *Problem
	penWeight := 1e3
	penalized := func(z []float64, evals *int) float64 {
		x := toX(z)
		f := at.eval(x, evals)
		if f >= Infeasible {
			return Infeasible
		}
		for i := range at.Cons {
			if v := at.evalCons(i, x, evals); v > 0 {
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
	penalizedProbe := func(z []float64, evals *int) float64 {
		*evals++
		return clamp(penalized(z, evals))
	}
	// scaledPen is the unit box the finite differences probe.
	scaledPen := &Problem{
		Lower:       make([]float64, n),
		Upper:       make([]float64, n),
		GradMinStep: scaledGradMinStep(p, span),
	}
	for i := 0; i < n; i++ {
		scaledPen.Upper[i] = 1
		if p.pinned(i) {
			scaledPen.Upper[i] = 0 // pinned axis: the QP must not move it
		}
	}
	z2 := func(zi float64, i int) float64 {
		return math.Min(scaledPen.Upper[i], math.Max(0, zi))
	}
	for i := range z {
		z[i] = z2(z[i], i)
	}

	gradEvals := 0
	// gradPen produces the scaled-space gradient of the penalized
	// objective: ∇φ_z = span∘(∇F + Σ_{c_i>0} 2·penWeight·c_i·∇c_i) on the
	// analytic path (penWeight is read at call time, so re-derivations
	// after a penalty escalation see the new weight), finite differences of
	// the composite otherwise. Any declined piece falls back whole.
	gradPen := func(zz []float64, fzz float64) []float64 {
		if opts.Grad != nil {
			if g := func() []float64 {
				x := toX(zz)
				gx := opts.Grad(x)
				if gx == nil {
					return nil
				}
				gradEvals++
				g := scaleToZ(gx, span, p)
				for i := range p.Cons {
					v := at.evalCons(i, x, &evals)
					if v <= 0 {
						continue
					}
					var gc []float64
					if i < len(opts.ConsGrad) && opts.ConsGrad[i] != nil {
						gc = opts.ConsGrad[i](x)
					}
					if gc == nil {
						return nil
					}
					gradEvals++
					for j := 0; j < n; j++ {
						if p.pinned(j) {
							continue
						}
						g[j] += 2 * penWeight * v * gc[j] * span[j]
					}
				}
				return g
			}(); g != nil {
				return g
			}
		}
		return scaledPen.gradient(penalizedProbe, zz, fzz, opts.workers(), &evals)
	}

	at = p.near(toX(z))
	f := penalized(z, &evals)
	g := gradPen(z, f)
	bmat := identity(n)
	delta := 0.25
	tol := opts.tol()

	report := Report{X: toX(z), F: f}
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
			rhs = append(rhs, math.Min(delta, scaledPen.Upper[i]-z[i]))
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
			zNew[i] = z2(z[i]+d[i], i)
		}
		fNew := penalized(zNew, &evals)
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
			at = p.near(toX(zNew))
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
			report.X = toX(z)
			report.F = at.eval(report.X, &evals)
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
			if at.maxViolation(report.X, &evals) > opts.tol() {
				penWeight = math.Min(penWeight*2, 1e9)
				f = penalized(z, &evals)
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

	report.MaxViolation = at.maxViolation(report.X, &evals)
	report.FuncEvals = evals
	report.GradEvals = gradEvals
	return report, nil
}
