package solver

import "math"

// unitBox is the scaled space ActiveSetSQP, InteriorPoint and TrustRegion
// iterate in: the caller's box mapped onto the unit cube, so tolerances
// and curvature estimates are comparable across variables with very
// different ranges (ω spans hundreds of rad/s, I_TEC a few amperes).
//
// The embedded Problem is the unit box itself. Lower is 0 and Upper is 1,
// or 0 on an axis the caller's bounds pin, so the scaled problem is
// exactly the lower-dimensional one: QP box rows hold d_i = 0 there and
// finite differences skip the axis. Its F and Cons evaluate the anchored
// problem at toX(z), its Near (set when the caller's is) anchors the
// caller's problem on toX of its arguments, and its gradMinStep carries
// the caller's finite-difference floors (see quantRelStep) into unit-box
// steps.
type unitBox struct {
	Problem
	p *Problem
	// span is Upper − Lower of the caller's problem, 1 on a pinned axis.
	span []float64
	// at is p anchored on the incumbent (see Problem.Near); every
	// evaluation of the solve goes through it. anchor moves it.
	at *Problem
	// grad and consGrad are Options.Grad and Options.ConsGrad.
	grad     GradFunc
	consGrad []GradFunc
	// gradEvals counts the analytic gradients that answered.
	gradEvals int
}

// newUnitBox scales p for a solve under opts from x0. It returns the box,
// anchored on the start, and the start: x0 mapped onto the unit box and
// projected into it.
func newUnitBox(p *Problem, x0 []float64, opts Options) (*unitBox, []float64) {
	n := p.Dim()
	b := &unitBox{p: p, span: make([]float64, n), grad: opts.Grad, consGrad: opts.ConsGrad}
	b.Lower = make([]float64, n)
	b.Upper = make([]float64, n)
	b.gradMinStep = make([]float64, n)
	z := make([]float64, n)
	for i := range b.span {
		b.span[i] = p.Upper[i] - p.Lower[i]
		if p.pinned(i) {
			b.span[i] = 1
		} else {
			b.Upper[i] = 1
		}
		// A z-step of m/span_i moves x_i by m.
		b.gradMinStep[i] = minFDStep(p.Lower[i], p.Upper[i]) / b.span[i]
		z[i] = math.Min(b.Upper[i], math.Max(0, (x0[i]-p.Lower[i])/b.span[i]))
	}
	b.F = func(z []float64) float64 { return b.at.F(b.toX(z)) }
	for i := range p.Cons {
		b.Cons = append(b.Cons, func(z []float64) float64 { return b.at.Cons[i](b.toX(z)) })
	}
	if p.Near != nil {
		b.Near = func(z, zUp []float64) (Func, []Func) {
			var up []float64
			if zUp != nil {
				up = b.toX(zUp)
			}
			q := p.near(b.toX(z), up)
			f := func(z []float64) float64 { return q.F(b.toX(z)) }
			cons := make([]Func, len(q.Cons))
			for i, c := range q.Cons {
				cons[i] = func(z []float64) float64 { return c(b.toX(z)) }
			}
			return f, cons
		}
	}
	b.anchor(z)
	return b, z
}

// toX maps a unit-box point to the caller's units, clamped into the box.
func (b *unitBox) toX(z []float64) []float64 {
	x := make([]float64, len(z))
	for i := range x {
		x[i] = b.p.Lower[i] + z[i]*b.span[i]
	}
	b.p.clampBox(x)
	return x
}

// anchor makes z the incumbent every later evaluation is anchored on.
func (b *unitBox) anchor(z []float64) { b.at = b.p.near(b.toX(z), nil) }

// objGrad returns the analytic objective gradient at x in unit-box units,
// or nil when Options.Grad is unset or declines x.
func (b *unitBox) objGrad(x []float64) []float64 {
	if b.grad == nil {
		return nil
	}
	gx := b.grad(x)
	if gx == nil {
		return nil
	}
	b.gradEvals++
	return b.scale(gx)
}

// consGradX returns constraint i's analytic gradient at x in the caller's
// units, or nil when Options.ConsGrad has no entry for it or declines x.
func (b *unitBox) consGradX(i int, x []float64) []float64 {
	if i >= len(b.consGrad) || b.consGrad[i] == nil {
		return nil
	}
	gc := b.consGrad[i](x)
	if gc != nil {
		b.gradEvals++
	}
	return gc
}

// scale chain-rules a gradient in the caller's units into the unit box:
// ∂f/∂z_i = span_i·∂f/∂x_i. Pinned axes are zero: their x never moves.
func (b *unitBox) scale(gx []float64) []float64 {
	g := make([]float64, len(gx))
	for i := range g {
		if b.pinned(i) {
			continue
		}
		g[i] = gx[i] * b.span[i]
	}
	return g
}

// addWeighted adds w·∇c, with ∇c = gc in the caller's units, to the
// unit-box gradient g on every live axis: the constraint term of a
// barrier or penalty composite.
func (b *unitBox) addWeighted(g, gc []float64, w float64) {
	for j := range g {
		if b.pinned(j) {
			continue
		}
		g[j] += w * gc[j] * b.span[j]
	}
}
