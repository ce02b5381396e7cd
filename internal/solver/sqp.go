package solver

import (
	"math"
)

// ActiveSetSQP minimizes the problem with an active-set sequential
// quadratic programming method (the technique the paper found best for
// OFTEC in both quality and speed, Section 5.2): at each iterate the KKT
// conditions are approximated by a convex QP built from a damped-BFGS
// Hessian of the Lagrangian and linearized constraints; the QP is solved
// exactly (active-set enumeration), and an ℓ1-merit backtracking line
// search globalizes the step.
//
// Internally the variables are scaled to the unit box so tolerances and
// curvature estimates are comparable across variables with very different
// ranges (ω spans hundreds of rad/s, I_TEC a few amperes).
func ActiveSetSQP(p *Problem, x0 []float64, opts Options) (Report, error) {
	if err := p.Validate(); err != nil {
		return Report{}, err
	}
	n := p.Dim()
	evals := 0

	// Variable scaling to the unit box.
	span := make([]float64, n)
	for i := range span {
		span[i] = p.Upper[i] - p.Lower[i]
		if span[i] == 0 {
			span[i] = 1 // pinned variable
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
	// at is the problem anchored on the incumbent (see Problem.Near);
	// every evaluation below goes through it.
	var at *Problem
	scaled := &Problem{
		F:           func(z []float64) float64 { return at.F(toX(z)) },
		Lower:       make([]float64, n),
		Upper:       make([]float64, n),
		GradMinStep: scaledGradMinStep(p, span),
	}
	for i := 0; i < n; i++ {
		scaled.Upper[i] = 1
		if p.pinned(i) {
			// Propagate pinned bounds so the scaled problem is exactly the
			// lower-dimensional one: the QP box rows pin d_i = 0 and the
			// finite-difference gradient skips the frozen axis.
			scaled.Upper[i] = 0
		}
	}
	for i := range p.Cons {
		scaled.Cons = append(scaled.Cons, func(z []float64) float64 { return at.Cons[i](toX(z)) })
	}

	z := make([]float64, n)
	for i := range z {
		zi := (x0[i] - p.Lower[i]) / span[i]
		z[i] = math.Min(scaled.Upper[i], math.Max(0, zi))
	}

	gradEvals := 0
	// gradObj and gradCons produce scaled-space derivatives: analytic via
	// Options.Grad/ConsGrad chain-ruled through the scaling when available
	// (and not declined), central differences otherwise.
	gradObj := func(zz []float64, fzz float64) []float64 {
		if opts.Grad != nil {
			if gx := opts.Grad(toX(zz)); gx != nil {
				gradEvals++
				return scaleToZ(gx, span, p)
			}
		}
		return scaled.gradient(scaled.eval, zz, fzz, opts.workers(), &evals)
	}
	gradCons := func(i int, zz []float64, cvv float64) []float64 {
		if i < len(opts.ConsGrad) && opts.ConsGrad[i] != nil {
			if gx := opts.ConsGrad[i](toX(zz)); gx != nil {
				gradEvals++
				return scaleToZ(gx, span, p)
			}
		}
		cons := func(z []float64, ev *int) float64 { return scaled.evalCons(i, z, ev) }
		return scaled.gradient(cons, zz, cvv, opts.workers(), &evals)
	}

	at = p.near(toX(z))
	fz := scaled.eval(z, &evals)
	report := Report{X: toX(z), F: fz, Iterations: 0}
	finish := func() (Report, error) {
		report.MaxViolation = at.maxViolation(report.X, &evals)
		report.FuncEvals = evals
		report.GradEvals = gradEvals
		return report, nil
	}
	if opts.cancelled() {
		report.Stopped = StopCancelled
		return finish()
	}

	g := gradObj(z, fz)
	m := len(scaled.Cons)
	cv := make([]float64, m)
	ca := make([][]float64, m)
	for i := 0; i < m; i++ {
		cv[i] = scaled.evalCons(i, z, &evals)
		ca[i] = gradCons(i, z, cv[i])
	}

	bmat := identity(n)
	mu := 10.0
	tol := opts.tol()

	// merit evaluates the objective and each constraint at zz exactly
	// once, storing the raw constraint values into cons (len m) and
	// returning the objective and the ℓ1 violation sum. One trial step
	// therefore costs 1+m evaluations — the line search below must not
	// re-evaluate constraints it already has.
	merit := func(zz, cons []float64) (float64, float64) {
		f := scaled.eval(zz, &evals)
		var violSum float64
		for i := 0; i < m; i++ {
			v := scaled.evalCons(i, zz, &evals)
			cons[i] = v
			if v > 0 {
				violSum += v
			}
		}
		return f, violSum
	}
	consTrial := make([]float64, m)

	for iter := 1; iter <= opts.maxIter(); iter++ {
		if opts.cancelled() {
			report.Stopped = StopCancelled
			break
		}
		report.Iterations = iter

		// Assemble the QP: rows for linearized constraints and box bounds.
		var rows [][]float64
		var rhs []float64
		for i := 0; i < m; i++ {
			rows = append(rows, ca[i])
			rhs = append(rhs, -cv[i])
		}
		for i := 0; i < n; i++ {
			up := make([]float64, n)
			up[i] = 1
			rows = append(rows, up)
			rhs = append(rhs, scaled.Upper[i]-z[i])
			lo := make([]float64, n)
			lo[i] = -1
			rows = append(rows, lo)
			rhs = append(rhs, z[i])
		}

		var d, lam []float64
		var qpErr error
		// Relax inconsistent linearizations progressively: require only a
		// fraction of each violated constraint to be recovered per step.
		for _, sigma := range []float64{1, 0.5, 0.1, 0} {
			q := &qpProblem{b: bmat, g: g, a: rows, c: append([]float64(nil), rhs...)}
			for i := 0; i < m; i++ {
				if cv[i] > 0 {
					q.c[i] = -sigma * cv[i]
				}
			}
			d, lam, qpErr = q.solve()
			if qpErr == nil {
				break
			}
		}
		if qpErr != nil {
			// Feasibility restoration: steepest descent on the violation.
			d = make([]float64, n)
			for i := 0; i < m; i++ {
				if cv[i] > 0 {
					for j := 0; j < n; j++ {
						d[j] -= ca[i][j]
					}
				}
			}
			if norm2(d) == 0 {
				// Restoration has no direction to offer: stop without a
				// stationarity claim.
				report.Stopped = StopRestored
				break
			}
			lam = make([]float64, len(rows))
		}

		// Penalty parameter: must dominate the multipliers.
		maxLam := 0.0
		for i := 0; i < m; i++ {
			if lam[i] > maxLam {
				maxLam = lam[i]
			}
		}
		if mu < 2*maxLam+1 {
			mu = 2*maxLam + 1
		}

		// ℓ1 merit line search.
		phi0 := fz
		var viol0 float64
		for i := 0; i < m; i++ {
			if cv[i] > 0 {
				viol0 += cv[i]
			}
		}
		phi0 += mu * viol0
		// Directional derivative bound for the Armijo test.
		descent := dot(g, d) - mu*viol0
		if descent > 0 {
			descent = 0
		}

		alpha := 1.0
		var zNew []float64
		var cvNew []float64
		accepted := false
		for alpha >= 1e-9 {
			cand := make([]float64, n)
			for i := range cand {
				cand[i] = z[i] + alpha*d[i]
			}
			scaled.clampBox(cand)
			f, violSum := merit(cand, consTrial)
			phi := f + mu*violSum
			if phi <= phi0+1e-4*alpha*descent && phi < Infeasible {
				zNew = cand
				fz = f
				// The accepted trial's constraint values become the next
				// iterate's cv — re-evaluating them would double-count.
				cvNew = append([]float64(nil), consTrial...)
				accepted = true
				break
			}
			alpha /= 2
		}
		if !accepted {
			// The merit function cannot be decreased along d: declare
			// convergence at the current iterate.
			report.Converged = true
			report.Stopped = StopConverged
			break
		}

		step := 0.0
		for i := range d {
			step = math.Max(step, math.Abs(alpha*d[i]))
		}

		// New derivatives (constraint values carried over from the line
		// search above), anchored on the new incumbent.
		at = p.near(toX(zNew))
		gNew := gradObj(zNew, fz)
		caNew := make([][]float64, m)
		for i := 0; i < m; i++ {
			caNew[i] = gradCons(i, zNew, cvNew[i])
		}

		// Damped BFGS on the Lagrangian gradient.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s[i] = zNew[i] - z[i]
			y[i] = gNew[i] - g[i]
			for j := 0; j < m; j++ {
				y[i] += lam[j] * (caNew[j][i] - ca[j][i])
			}
		}
		bfgsUpdate(bmat, s, y)

		z, g, cv, ca = zNew, gNew, cvNew, caNew
		report.X = toX(z)
		report.F = fz

		var worstViol float64
		for i := 0; i < m; i++ {
			if cv[i] > worstViol {
				worstViol = cv[i]
			}
		}
		opts.trace(TraceRecord{
			Method: "sqp", Iter: iter,
			X: append([]float64(nil), report.X...), F: fz,
			MaxViolation: worstViol, StepNorm: step, Alpha: alpha,
		})

		if opts.StopWhen != nil && opts.StopWhen(report.X, fz) {
			report.EarlyStopped = true
			report.Stopped = StopEarlyStopped
			break
		}
		if step < tol {
			report.Converged = true
			report.Stopped = StopConverged
			break
		}
	}
	if report.Stopped == StopUnset {
		report.Stopped = StopMaxIter
	}

	return finish()
}
