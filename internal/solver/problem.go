// Package solver implements the constrained nonlinear programming methods
// the paper evaluated for OFTEC (Section 5.2): the active-set sequential
// quadratic programming (SQP) method it selected, plus the interior-point
// and trust-region techniques it compared against, and the drivers
// composed from them (MultiStart, Fallback, the trace hook). The dense
// grid search that checks their answers lives in the testutil package.
//
// Objectives are treated as black boxes evaluated numerically (the paper's
// objective requires a thermal simulation per point); gradients default to
// finite-difference approximations, with an analytic path (Options.Grad /
// Options.ConsGrad, fed by the thermal adjoint solves) that collapses the
// 2n probes per derivative into a single callback. A finite-difference
// derivative runs one task per axis on Options.Workers goroutines, each
// solving its upper probe and then its lower probe warm-started from the
// upper one's reflection (Problem.Near), which costs little more than a
// cache hit: a derivative costs ⌈n/W⌉ pair times instead of 2n evaluation
// times, with the same result at every width. Problems are small
// (OFTEC has two variables, ω and I_TEC), which the implementations
// exploit: the SQP quadratic subproblems are solved exactly by enumerating
// active sets.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Infeasible is the objective/constraint value convention for operating
// points where the simulation diverges (thermal runaway): evaluations
// should return a large finite value rather than +Inf so finite-difference
// gradients stay meaningful. Evaluators may also return +Inf; the solvers
// clamp it to this value.
const Infeasible = 1e12

// Func evaluates a scalar function of the decision vector.
type Func func(x []float64) float64

// GradFunc evaluates the exact gradient of a scalar function at x, in the
// problem's own (unscaled) units. Returning nil declines the evaluation —
// the point is outside the differentiable region (thermal runaway) or the
// underlying adjoint solve failed — and the solver falls back to finite
// differences at that point only.
type GradFunc func(x []float64) []float64

// Problem is the CNLP
//
//	minimize    F(x)
//	subject to  Cons_i(x) ≤ 0   for all i
//	            Lower ≤ x ≤ Upper.
type Problem struct {
	// F is the objective.
	F Func
	// Cons are inequality constraints, satisfied when ≤ 0.
	Cons []Func
	// Lower and Upper are box bounds, required and finite.
	Lower, Upper []float64
	// gradMinStep, when non-nil (length Dim), floors the per-variable
	// finite-difference step at an absolute minimum in the variable's own
	// units. Evaluators that memoize on quantized coordinates (core's
	// evaluation cache rounds to a 1e-9 grid) alias probes closer than the
	// grid spacing, turning difference quotients into exact zeros; the
	// floor keeps both probes on distinct cache keys. Only the solvers'
	// unit boxes set it.
	gradMinStep []float64
	// Near, when non-nil, anchors a solver call's evaluations. Its two
	// kinds of call differ in the second argument:
	//
	//   - Near(x, nil) anchors on the incumbent x. The solver makes this
	//     call serially, with its clamped start and then with each
	//     accepted iterate, before taking derivatives there. Every later
	//     evaluation of the call — upper finite-difference probes on any
	//     number of workers, line-search trials, constraint values — goes
	//     through the objective and constraints it returned (one per
	//     Cons) until the next accepted iterate.
	//   - Near(x, up), with up = x + h·e_i an upper finite-difference
	//     probe the derivative at x has just evaluated below Infeasible,
	//     anchors on up's reflection through x: the functions it returns
	//     answer only the matching lower probe x − h·e_i. The derivative's
	//     probe tasks make these calls, possibly concurrently.
	//
	// An evaluator that a nearby answer can steer (core warm-starts CG
	// from the anchor's temperature field, or from 2·T(x) − T(up))
	// thereby steers by the iterate and the plan, never by evaluation
	// order. Nil evaluates F and Cons throughout.
	Near func(x, up []float64) (f Func, cons []Func)
}

// Dim returns the number of decision variables.
func (p *Problem) Dim() int { return len(p.Lower) }

// pinned reports whether variable i is frozen by degenerate bounds.
// Degenerate bounds are constructed by assignment (lower[i] = upper[i] =
// value, e.g. a fixed fan speed), so the identity is exact by design and
// no tolerance is wanted: a near-zero span is a live variable.
func (p *Problem) pinned(i int) bool { return p.Upper[i]-p.Lower[i] == 0 }

// Validate checks the problem structure.
func (p *Problem) Validate() error {
	if p.F == nil {
		return errors.New("solver: problem has no objective")
	}
	n := len(p.Lower)
	if n == 0 {
		return errors.New("solver: problem has no variables")
	}
	if len(p.Upper) != n {
		return fmt.Errorf("solver: bound lengths differ (%d vs %d)", n, len(p.Upper))
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(p.Lower[i]) || math.IsNaN(p.Upper[i]) ||
			math.IsInf(p.Lower[i], 0) || math.IsInf(p.Upper[i], 0) {
			return fmt.Errorf("solver: bounds for variable %d must be finite", i)
		}
		if p.Lower[i] > p.Upper[i] {
			return fmt.Errorf("solver: variable %d has empty domain [%g, %g]", i, p.Lower[i], p.Upper[i])
		}
	}
	return nil
}

// near returns the problem anchored on x and up (see Near): p itself
// without Near, else a copy carrying the functions Near returned.
func (p *Problem) near(x, up []float64) *Problem {
	if p.Near == nil {
		return p
	}
	q := *p
	q.F, q.Cons = p.Near(x, up)
	q.Near = nil
	return &q
}

// clampBox projects x into the box bounds in place.
func (p *Problem) clampBox(x []float64) {
	for i := range x {
		if x[i] < p.Lower[i] {
			x[i] = p.Lower[i]
		}
		if x[i] > p.Upper[i] {
			x[i] = p.Upper[i]
		}
	}
}

// clamp maps NaN, +Inf and anything above Infeasible to Infeasible, and
// −Inf to −Infeasible.
func clamp(v float64) float64 {
	if math.IsNaN(v) || v > Infeasible || math.IsInf(v, 1) {
		return Infeasible
	}
	if math.IsInf(v, -1) {
		return -Infeasible
	}
	return v
}

// eval evaluates the objective with the +Inf clamp.
func (p *Problem) eval(x []float64, evals *int) float64 {
	*evals++
	return clamp(p.F(x))
}

// evalCons evaluates constraint i with the same clamp.
func (p *Problem) evalCons(i int, x []float64, evals *int) float64 {
	*evals++
	return clamp(p.Cons[i](x))
}

// maxViolation returns the largest positive constraint value at x (0 when
// feasible).
func (p *Problem) maxViolation(x []float64, evals *int) float64 {
	var worst float64
	for i := range p.Cons {
		if v := p.evalCons(i, x, evals); v > worst {
			worst = v
		}
	}
	return worst
}

// Options tunes the iterative solvers.
type Options struct {
	// MaxIter caps outer iterations; zero selects 200.
	MaxIter int
	// Tol is the convergence tolerance on step length and KKT residual;
	// zero selects 1e-6 (in the scaled variable space).
	Tol float64
	// Grad, when non-nil, supplies the exact gradient of F (in the
	// problem's own units); the solvers then skip the 2n finite-difference
	// probes per derivative. A nil return from the function falls back to
	// finite differences at that point.
	Grad GradFunc
	// ConsGrad optionally supplies exact gradients for the corresponding
	// entries of Problem.Cons; missing or nil entries use finite
	// differences. The barrier and penalty solvers need every constraint
	// gradient to assemble an analytic composite gradient, so a single nil
	// entry sends them back to finite differences for the whole composite.
	ConsGrad []GradFunc
	// StopWhen, if non-nil, is checked after every accepted iterate; a
	// true return stops the solver early with Converged=false and
	// EarlyStopped=true. Algorithm 1 uses this to stop Optimization 2 as
	// soon as 𝒯 < T_max.
	StopWhen func(x []float64, f float64) bool
	// Workers bounds the fan-out of every finite-difference derivative
	// the solvers take: one task per axis, each an upper probe and then
	// its lower probe. Zero and one keep the serial loop (required when
	// the problem's F and Cons are not safe for concurrent use); negative
	// selects GOMAXPROCS. When F and Cons, and the functions Problem.Near
	// returns, answer a point independently of evaluation order, the
	// Report is identical at any width: an anchored answer may depend on
	// the incumbent and on the probe plan, which the serial iteration
	// fixes, but not on which axis ran first.
	Workers int
	// Ctx, when non-nil, is checked at every iteration boundary: once it
	// is cancelled or past its deadline, the solver stops within one
	// iteration and returns its best-so-far Report with Stopped =
	// StopCancelled and no error. A nil Ctx never cancels. Cancellation
	// cannot interrupt an evaluation already in flight — F and Cons are
	// black boxes — only the boundary between iterations.
	Ctx context.Context
	// Trace, when non-nil, receives one TraceRecord per accepted iterate
	// from every iterative solver (and from each start of a MultiStart
	// launch), always from the solver's own goroutine.
	Trace TraceFunc
}

// cancelled reports whether Ctx demands an early exit.
func (o Options) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// trace emits a record when a Trace hook is installed.
func (o Options) trace(rec TraceRecord) {
	if o.Trace != nil {
		o.Trace(rec)
	}
}

// workers resolves Workers for parallel.ForEach: zero is the serial
// loop, as one is.
func (o Options) workers() int {
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 200
	}
	return o.MaxIter
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-6
	}
	return o.Tol
}

// StopReason says why a solver handed back its Report. Every solver in
// this package sets it on every exit path; StopUnset in a returned Report
// is a bug (the conformance suite enforces this).
type StopReason int

const (
	// StopUnset is the zero value: no reason was recorded.
	StopUnset StopReason = iota
	// StopConverged: the method met its convergence test.
	StopConverged
	// StopEarlyStopped: Options.StopWhen fired.
	StopEarlyStopped
	// StopMaxIter: the iteration budget ran out before convergence.
	StopMaxIter
	// StopCancelled: Options.Ctx was cancelled or timed out; the Report
	// carries the best-so-far iterate.
	StopCancelled
	// StopRestored: the method dead-ended in feasibility restoration (it
	// could not even reduce the constraint violation) and stopped without
	// a stationarity claim.
	StopRestored
)

// String names the reason for reports and traces.
func (s StopReason) String() string {
	switch s {
	case StopUnset:
		return "unset"
	case StopConverged:
		return "converged"
	case StopEarlyStopped:
		return "early-stopped"
	case StopMaxIter:
		return "max-iter"
	case StopCancelled:
		return "cancelled"
	case StopRestored:
		return "restored"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// Report describes the outcome of a solve.
type Report struct {
	// X is the best point found.
	X []float64
	// F is the objective at X.
	F float64
	// MaxViolation is the largest constraint violation at X (0 = feasible).
	MaxViolation float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// FuncEvals counts objective and constraint evaluations.
	FuncEvals int
	// GradEvals counts analytic gradient evaluations (Options.Grad and
	// Options.ConsGrad calls that returned a gradient). Zero on the pure
	// finite-difference path.
	GradEvals int
	// Converged reports whether the method met its convergence test. It
	// is true exactly when Stopped == StopConverged.
	Converged bool
	// EarlyStopped reports that Options.StopWhen fired. It is true
	// exactly when Stopped == StopEarlyStopped.
	EarlyStopped bool
	// Stopped records why the solve ended. Aggregating drivers
	// (MultiStart, Fallback) report the reason of the whole launch: a
	// cancelled launch reports StopCancelled even when some start
	// converged before the cancellation.
	Stopped StopReason
}

// Feasible reports whether the final point satisfies all constraints to
// within tol.
func (r Report) Feasible(tol float64) bool { return r.MaxViolation <= tol }
