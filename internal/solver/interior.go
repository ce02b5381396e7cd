package solver

import (
	"math"

	"oftec/internal/sparse"
)

// InteriorPoint minimizes the problem with a primal log-barrier method,
// one of the two techniques the paper compared the active-set SQP against.
// The inequality constraints and box bounds enter through an extrapolated
// logarithmic barrier (quadratic continuation outside the barrier domain,
// so infeasible starting points are handled gracefully); the barrier
// parameter is driven to zero over a fixed schedule, and each barrier
// subproblem is minimized by a damped-BFGS quasi-Newton iteration with
// backtracking line search.
func InteriorPoint(p *Problem, x0 []float64, opts Options) (Report, error) {
	if err := p.Validate(); err != nil {
		return Report{}, err
	}
	n := p.Dim()
	evals := 0

	box, z := newUnitBox(p, x0, opts)

	// psi is the extrapolated log barrier: -mu*ln(-c) while c ≤ -mu,
	// and the C¹ quadratic continuation beyond.
	psi := func(c, mu float64) float64 {
		if c <= -mu {
			return -mu * math.Log(-c)
		}
		// Value and slope matched at c = -mu: value -mu*ln(mu), slope 1.
		d := c + mu
		return -mu*math.Log(mu) + d + d*d/(2*mu)
	}
	// psiPrime is dψ/dc: -mu/c on the log branch, the matched linear slope
	// on the quadratic continuation.
	psiPrime := func(c, mu float64) float64 {
		if c <= -mu {
			return -mu / c
		}
		return 1 + (c+mu)/mu
	}

	// Barrier objective in scaled space, through q: the box or one of its
	// anchored copies.
	const edge = 1e-9
	barrier := func(q *Problem, z []float64, mu float64, evals *int) float64 {
		*evals++
		f := q.F(z)
		if math.IsNaN(f) || f >= Infeasible || math.IsInf(f, 1) {
			return Infeasible
		}
		for i := range q.Cons {
			*evals++
			f += psi(q.Cons[i](z), mu)
		}
		for i := 0; i < n; i++ {
			f += psi(edge-z[i], mu) + psi(z[i]-1+edge, mu)
		}
		if math.IsNaN(f) || f > Infeasible {
			return Infeasible
		}
		return f
	}

	// gradAnalytic assembles the exact barrier gradient from Options.Grad
	// and Options.ConsGrad: ∇φ_z = span∘(∇F + Σψ'(c_i)∇c_i) plus the box
	// barrier terms, which are analytic by construction. It returns nil —
	// sending the caller back to finite differences — when any piece is
	// unavailable or declines: a half-analytic composite would drift
	// against the finite-difference pieces and wreck the BFGS pairs.
	gradAnalytic := func(zz []float64, mu float64) []float64 {
		x := box.toX(zz)
		g := box.objGrad(x)
		if g == nil {
			return nil
		}
		for i := range p.Cons {
			gc := box.consGradX(i, x)
			if gc == nil {
				return nil
			}
			box.addWeighted(g, gc, psiPrime(box.at.evalCons(i, x, &evals), mu))
		}
		for i := 0; i < n; i++ {
			if box.pinned(i) {
				g[i] = 0
				continue
			}
			g[i] += -psiPrime(edge-zz[i], mu) + psiPrime(zz[i]-1+edge, mu)
		}
		return g
	}

	// grad falls back to finite differences of the barrier, planned and
	// combined like Problem.gradient's and evaluated through the same pair
	// scheduler: both probes of every live axis (the extrapolated barrier
	// is defined past the box), each at least the unit box's floor apart.
	grad := func(z []float64, mu float64, f0 float64) []float64 {
		if g := gradAnalytic(z, mu); g != nil {
			return g
		}
		pairs := make([]pair, n)
		for i := range pairs {
			if box.pinned(i) {
				continue // pinned axis: the derivative along it is zero
			}
			pairs[i] = pair{h: math.Max(fdRelStep, box.gradMinStep[i]), up: true, down: true}
		}
		phi := func(q *Problem, zz []float64, evals *int) float64 { return barrier(q, zz, mu, evals) }
		box.probePairs(phi, z, pairs, opts.workers(), &evals)

		g := make([]float64, n)
		for i, pr := range pairs {
			if box.pinned(i) {
				continue
			}
			switch {
			case pr.fUp < Infeasible && pr.fDown < Infeasible:
				g[i] = (pr.fUp - pr.fDown) / (2 * pr.h)
			case pr.fUp < Infeasible:
				g[i] = (pr.fUp - f0) / pr.h
			case pr.fDown < Infeasible:
				g[i] = (f0 - pr.fDown) / pr.h
			}
		}
		return g
	}

	report := Report{X: box.toX(z)}
	tol := opts.tol()
	totalIter := 0

	// stationary records whether the most recent barrier subproblem ended
	// at (approximate) stationarity — line search exhausted at the current
	// iterate, or a sub-tolerance step — rather than by running out of its
	// inner budget. Convergence of the whole method is the stationarity of
	// the final subproblem; it is NOT claimed unconditionally.
	stationary := false

	mu := 1.0
outer:
	for outerIt := 0; outerIt < 12 && mu > 1e-8; outerIt++ {
		bmat := identity(n)
		f := barrier(&box.Problem, z, mu, &evals)
		g := grad(z, mu, f)
		stationary = false
		for inner := 0; inner < opts.maxIter()/4+10; inner++ {
			if opts.cancelled() {
				report.Stopped = StopCancelled
				break outer
			}
			totalIter++
			// Newton-like direction from the BFGS model.
			lu, err := sparse.NewLU(bmat)
			var d []float64
			if err == nil {
				rhs := make([]float64, n)
				for i := range rhs {
					rhs[i] = -g[i]
				}
				d, err = lu.Solve(rhs)
			}
			if err != nil || dot(d, g) >= 0 {
				d = make([]float64, n)
				for i := range d {
					d[i] = -g[i]
				}
			}
			// Backtracking with an Armijo sufficient-decrease test. A bare
			// simple-decrease escape (`|| fNew < f`) would accept the very
			// first trial whenever it improves at all, making the test
			// vacuous; simple decrease is tolerated only as a last resort
			// once α has bottomed out, so ill-scaled barrier valleys can
			// still be crept along.
			alpha := 1.0
			var zNew []float64
			var fNew float64
			for alpha >= 1e-10 {
				cand := make([]float64, n)
				for i := range cand {
					cand[i] = z[i] + alpha*d[i]
				}
				box.clampBox(cand)
				fNew = barrier(&box.Problem, cand, mu, &evals)
				armijo := fNew < f-1e-6*alpha*math.Abs(dot(g, d))
				lastResort := alpha < 1e-8 && fNew < f
				if armijo || lastResort {
					zNew = cand
					break
				}
				alpha /= 2
			}
			if zNew == nil {
				stationary = true
				break // stationary for this barrier parameter
			}
			box.anchor(zNew)
			gNew := grad(zNew, mu, fNew)
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

			opts.trace(TraceRecord{
				Method: "interior", Iter: totalIter,
				X: box.toX(z), F: f,
				MaxViolation: math.NaN(), StepNorm: stepInf, Alpha: alpha,
			})

			if opts.StopWhen != nil {
				x := box.toX(z)
				fv := box.at.eval(x, &evals)
				if opts.StopWhen(x, fv) {
					report.X = x
					report.F = fv
					report.EarlyStopped = true
					report.Stopped = StopEarlyStopped
					report.Iterations = totalIter
					report.MaxViolation = box.at.maxViolation(x, &evals)
					report.FuncEvals = evals
					report.GradEvals = box.gradEvals
					return report, nil
				}
			}
			if stepInf < tol {
				stationary = true
				break
			}
		}
		mu /= 6
	}

	report.Iterations = totalIter
	report.X = box.toX(z)
	report.F = box.at.eval(report.X, &evals)
	report.MaxViolation = box.at.maxViolation(report.X, &evals)
	if report.Stopped != StopCancelled {
		// Converged only when the final barrier subproblem actually
		// reached stationarity, not unconditionally.
		report.Converged = stationary
		if stationary {
			report.Stopped = StopConverged
		} else {
			report.Stopped = StopMaxIter
		}
	}
	report.FuncEvals = evals
	report.GradEvals = box.gradEvals
	return report, nil
}
