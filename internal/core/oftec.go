package core

import (
	"context"
	"fmt"
	"time"

	"oftec/internal/backend"
	"oftec/internal/evalcache"
	"oftec/internal/parallel"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/units"
)

// Options configures a controller run.
type Options struct {
	// Mode restricts the decision space (OFTEC vs. the baselines).
	Mode Mode
	// Method selects the NLP technique; the zero value is the paper's
	// active-set SQP.
	Method Method
	// Solver tunes the underlying NLP solver.
	Solver solver.Options
	// SkipOpt1 stops after the feasibility phase (pure Optimization 2,
	// used to generate Figure 6(c)/(d)).
	SkipOpt1 bool
	// VerifyExact re-evaluates the final operating point with the exact
	// exponential leakage model and reports it in Outcome.ExactResult.
	// Scalar (single-zone) runs only; zoned runs ignore it.
	VerifyExact bool
	// ConstraintMargin backs the optimizer's constraint off the strict
	// threshold: the solver enforces T ≤ T_max − margin so the returned
	// point satisfies the paper's strict T < T_max. Zero selects 0.05 K.
	ConstraintMargin float64
	// MultiStart additionally launches Optimization 1 from the domain
	// corners (center start remains first), guarding against the "minor
	// non-convexities" the paper observes in Figure 6. Costs roughly 5×
	// the solver time.
	MultiStart bool
	// TMax overrides the thermal threshold (kelvin) for this run; zero
	// uses the model configuration's T_max. Pareto sweeps use this to
	// trace the power/temperature trade-off.
	TMax float64
	// Workers bounds the fan-out of the solver's finite-difference probe
	// pairs over the (thread-safe) evaluation cache, one pair per axis: a
	// derivative then costs ⌈dim/W⌉ pair times. Zero sizes the pool to
	// GOMAXPROCS; one forces the serial loop. Results are identical
	// either way: every solve a solver call asks for warm-starts from its
	// current iterate's temperature field, or, for a lower probe, from its
	// upper probe's reflection (solver.Problem.Near), both fixed by the
	// iterate and the probe plan. A point's answer agrees with any other
	// hint's to solver tolerance, and the first solve's hint fixes the
	// cached bits. MultiStart's starts and ParetoFront's thresholds run in
	// order. Solver.Workers, when set, pins the solver's own width instead.
	Workers int
	// Gradient steers the solver with exact adjoint gradients from the
	// backend (see backend.GradientOf) instead of finite differences,
	// collapsing the 2(1+k) probe evaluations per derivative into one
	// adjoint pair on the already-factored system. The thermal objective
	// and constraint switch to the log-sum-exp smoothed maximum 𝒯_τ the
	// adjoint differentiates — an over-estimate of the true maximum by at
	// most thermal.DefaultSmoothBound (0.05 K), so feasibility claims stay
	// conservative. Backends without the capability anywhere in their
	// fall-through chain silently stay on finite differences; an
	// approximate backend (rom) evaluates the objectives itself but
	// borrows its authoritative sibling's gradients.
	Gradient bool
	// Fallback runs each optimization through the solver fallback chain
	// (selected method first, then SQP → interior point with the
	// duplicate removed): when a stage fails to converge to a feasible
	// point, the next method restarts from the best iterate so far. Off by default so the paper's method-vs-method comparisons
	// measure one technique at a time; reports then aggregate evaluation
	// counts across every stage that ran.
	Fallback bool
}

func (o Options) tMax(cfg thermal.Config) float64 {
	if o.TMax > 0 {
		return o.TMax
	}
	return cfg.TMax
}

func (o Options) margin() float64 {
	if o.ConstraintMargin > 0 {
		return o.ConstraintMargin
	}
	return 0.05
}

// Outcome reports one controller run.
type Outcome struct {
	// Mode and Method echo the configuration.
	Mode   Mode
	Method Method

	// Omega and ITEC are the chosen operating point (ω*, I*_TEC).
	Omega, ITEC float64
	// Result is the steady state at the operating point (linearized
	// leakage), computed by the authoritative end of the backend chain —
	// an approximate backend never certifies its own result.
	Result *thermal.Result
	// ExactResult is the steady state under exact exponential leakage
	// (only when Options.VerifyExact).
	ExactResult *thermal.Result

	// Feasible reports whether the thermal constraint is met at the
	// operating point. A false value with FailedAtOpt2 set is Algorithm
	// 1's "Return failed" branch.
	Feasible     bool
	FailedAtOpt2 bool

	// MinMaxTemp is the 𝒯 value achieved by the feasibility phase
	// (Optimization 2); for SkipOpt1 runs it equals Result.MaxChipTemp.
	MinMaxTemp float64

	// Opt2Report and Opt1Report expose the raw solver reports.
	Opt2Report, Opt1Report solver.Report

	// Runtime is the wall-clock duration of the full run.
	Runtime time.Duration
}

// CoolingPower returns 𝒫 at the chosen operating point.
func (o *Outcome) CoolingPower() float64 {
	if o.Result == nil {
		return 0
	}
	return o.Result.CoolingPower()
}

// String renders a one-line summary.
func (o *Outcome) String() string {
	status := "feasible"
	if !o.Feasible {
		status = "INFEASIBLE"
		if o.FailedAtOpt2 {
			status = "FAILED (Optimization 2 cannot reach T_max)"
		}
	}
	return fmt.Sprintf("%s/%s: ω*=%.0f RPM I*=%.2f A, %s, %v",
		o.Mode, o.Method, units.RadPerSecToRPM(o.Omega), o.ITEC, status, o.Runtime.Round(time.Millisecond))
}

// vecOutcome is the mode-agnostic result of one Algorithm 1 run in the
// unified decision space x = (ω, I_1..I_k); Run and RunZoned translate it
// into their public outcome types.
type vecOutcome struct {
	x            []float64
	result       *thermal.Result
	exact        *thermal.Result
	feasible     bool
	failedAtOpt2 bool
	minMaxTemp   float64
	opt2, opt1   solver.Report
}

// Run executes Algorithm 1 (OFTEC):
//
//  1. Start from (ω_max/2, I_max/2) — the middle of the plane, where
//     Figure 6(a) locates the 𝒯 surface's basin.
//  2. If 𝒯 at the start exceeds T_max, solve Optimization 2 (minimize the
//     maximum chip temperature), stopping as soon as 𝒯 < T_max.
//  3. If even the minimized 𝒯 exceeds T_max, return failed.
//  4. Otherwise solve Optimization 1 (minimize 𝒫 subject to T < T_max)
//     from the feasible point and return (ω*, I*_TEC).
//
// Baseline modes run the same algorithm in their restricted decision
// spaces; RunZoned runs it over one current per zone.
func (s *System) Run(opts Options) (*Outcome, error) {
	start := time.Now()
	bnd, err := s.binding(nil)
	if err != nil {
		return nil, err
	}
	v, err := s.runVector(bnd, 1, opts)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Mode:         opts.Mode,
		Method:       opts.Method,
		Omega:        v.x[0],
		ITEC:         v.x[1],
		Result:       v.result,
		ExactResult:  v.exact,
		Feasible:     v.feasible,
		FailedAtOpt2: v.failedAtOpt2,
		MinMaxTemp:   v.minMaxTemp,
		Opt2Report:   v.opt2,
		Opt1Report:   v.opt1,
		Runtime:      time.Since(start),
	}
	return out, nil
}

// runVector is Algorithm 1 over the unified decision vector x =
// (ω, I_1..I_k): the k = 1 case is the paper's scalar deployment, k > 1
// the zoned generalization. Both phases evaluate through bnd (the cached
// backend); the final point is certified by the authoritative end of the
// backend chain in finishVector.
func (s *System) runVector(bnd *evalcache.Binding, k int, opts Options) (*vecOutcome, error) {
	cfg := s.ev.Config()

	lower, upper, corners, err := s.setup(k, opts)
	if err != nil {
		return nil, err
	}
	out := &vecOutcome{}

	// Line 1: initial point at the middle of the (restricted) domain.
	x0 := make([]float64, 1+k)
	for i := range x0 {
		x0[i] = (lower[i] + upper[i]) / 2
	}

	tMaxSolve := opts.tMax(cfg) - opts.margin()
	if opts.Solver.Workers == 0 {
		// Every evaluation of a solver call is anchored on its incumbent
		// (anchoredProblem), so an answer never depends on evaluation
		// order and the solver fans out its finite-difference probes
		// unless the caller pinned a width.
		opts.Solver.Workers = parallel.Workers(opts.Workers)
	}

	// Gradient mode: when the binding's backend chain offers adjoint
	// gradients, install them on the solver options and align the thermal
	// objective/constraint with the smoothed maximum the adjoint
	// differentiates.
	temp := maxTempObj
	var adj *adjoint
	if opts.Gradient {
		if ge, ok := backend.GradientOf(bnd); ok {
			adj = &adjoint{ge: ge}
			temp = smoothTempObj
		}
	}
	// Optimization 2 minimizes the thermal objective; Optimization 1
	// minimizes 𝒫 under the thermal constraint.
	feasibility := func(eval vecEval) (solver.Func, []solver.Func) {
		return func(x []float64) float64 { return temp(eval, x) }, nil
	}
	power := func(eval vecEval) (solver.Func, []solver.Func) {
		return func(x []float64) float64 { return coolingPowerObj(eval, x) },
			[]solver.Func{func(x []float64) float64 { return temp(eval, x) - tMaxSolve }}
	}

	// Both phases solve through one runner: the bare method, or the
	// fallback chain when requested. MultiStart composes by running the
	// chain from each start.
	solve := solver.Runner(opts.Method.run)
	if opts.Fallback {
		chain := opts.Method.fallbackChain()
		solve = func(p *solver.Problem, x0 []float64, so solver.Options) (solver.Report, error) {
			return solver.Fallback(chain, p, x0, so)
		}
	}

	// Lines 2-5: feasibility phase (Optimization 2). When SkipOpt1 is set
	// (MinimizeMaxTemp), Optimization 2 is solved unconditionally and to
	// convergence; inside Algorithm 1 it only runs when the starting point
	// is infeasible, and stops early as soon as 𝒯 < T_max.
	x1 := x0
	p2 := anchoredProblem(bnd, feasibility, lower, upper)
	t1 := p2.F(x0)
	if t1 > tMaxSolve || opts.SkipOpt1 {
		o2 := opts.Solver
		if adj != nil {
			o2.Grad = adj.tempGrad
		}
		if !opts.SkipOpt1 {
			// Algorithm 1 line 3: stop Optimization 2 early once feasible.
			prev := opts.Solver.StopWhen
			o2.StopWhen = func(x []float64, f float64) bool {
				if f < tMaxSolve {
					return true
				}
				return prev != nil && prev(x, f)
			}
		}
		rep, err := solve(p2, x0, o2)
		if err != nil {
			return nil, fmt.Errorf("core: optimization 2 failed: %w", err)
		}
		out.opt2 = rep
		if rep.F <= t1 {
			x1 = rep.X
			t1 = rep.F
		}
	}
	out.minMaxTemp = t1

	if t1 > tMaxSolve {
		// Line 5: no solution.
		out.failedAtOpt2 = true
		out.x = x1
		if err := s.finishVector(bnd, out, opts); err != nil {
			return nil, err
		}
		return out, nil
	}

	if opts.SkipOpt1 {
		out.x = x1
		if err := s.finishVector(bnd, out, opts); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Line 6: Optimization 1 from the feasible start.
	p1 := anchoredProblem(bnd, power, lower, upper)
	so1 := opts.Solver
	if adj != nil {
		so1.Grad = adj.powerGrad
		so1.ConsGrad = []solver.GradFunc{adj.tempGrad}
	}
	var rep solver.Report
	if opts.MultiStart {
		// The feasible point from phase 2 leads the list so the plain
		// Algorithm 1 path is always among the candidates.
		starts := append([][]float64{x1}, corners...)
		rep, err = solver.MultiStart(solve, p1, starts, so1)
	} else {
		rep, err = solve(p1, x1, so1)
	}
	if err != nil {
		return nil, fmt.Errorf("core: optimization 1 failed: %w", err)
	}
	out.opt1 = rep

	// Guard against a merit-function compromise: if the optimizer ended
	// slightly infeasible, fall back to the feasible point from phase 2.
	if rep.Feasible(1e-6) {
		out.x = rep.X
	} else {
		out.x = x1
	}
	if err := s.finishVector(bnd, out, opts); err != nil {
		return nil, err
	}
	return out, nil
}

// setup returns the decision box of an Algorithm 1 run over k zones and,
// under Options.MultiStart, Optimization 1's corner launch over it. It
// solves nothing, so an option the run cannot honor fails before the
// first solve.
func (s *System) setup(k int, opts Options) (lower, upper []float64, corners [][]float64, err error) {
	lower, upper, err = s.bounds(opts.Mode, k)
	if err != nil {
		return nil, nil, nil, err
	}
	if opts.MultiStart {
		box := &solver.Problem{F: func([]float64) float64 { return 0 }, Lower: lower, Upper: upper}
		if corners, err = solver.CornerStarts(box, 0.05); err != nil {
			return nil, nil, nil, fmt.Errorf("core: multistart setup failed: %w", err)
		}
	}
	return lower, upper, corners, nil
}

// CheckOptions returns the error Run (nil zoning) or RunZoned would
// report for opts before its first solve — a mode without a decision box,
// or a multistart corner launch past solver.CornerStarts' dimension bound
// — without solving anything, so a service can reject the request before
// its response starts.
func (s *System) CheckOptions(zoning *thermal.Zoning, opts Options) error {
	k := 1
	if zoning != nil {
		k = zoning.NumZones()
	}
	_, _, _, err := s.setup(k, opts)
	return err
}

// MinimizeMaxTemp solves Optimization 2 to completion (no early stop):
// the minimum achievable peak temperature, Figure 6(c)/(d).
func (s *System) MinimizeMaxTemp(opts Options) (*Outcome, error) {
	opts.SkipOpt1 = true
	// Force the full minimization: Run's early stop only arms when
	// SkipOpt1 is false, so this solves Optimization 2 to convergence.
	return s.Run(opts)
}

// finishVector evaluates the final operating point and fills the outcome.
// The evaluation goes to the authoritative end of the binding's backend
// chain, so a reduced-order backend can steer the search but never
// certify the returned operating point.
func (s *System) finishVector(bnd *evalcache.Binding, out *vecOutcome, opts Options) error {
	op := backend.OpPoint{Omega: out.x[0], Currents: append([]float64(nil), out.x[1:]...)}
	auth := backend.Authoritative(bnd)
	res, err := auth.Evaluate(context.Background(), op, nil)
	if err != nil {
		return err
	}
	out.result = res
	out.feasible = res.MeetsConstraint(opts.tMax(s.ev.Config()))
	if out.failedAtOpt2 {
		out.feasible = false
	}
	if opts.VerifyExact && op.K() == 1 {
		ex, ok := auth.(backend.ExactEvaluator)
		if !ok {
			return fmt.Errorf("core: backend %q cannot verify exactly", auth.Name())
		}
		exact, err := ex.EvaluateExact(op.Omega, op.Currents[0])
		if err != nil {
			return err
		}
		out.exact = exact
	}
	return nil
}
