package core

import (
	"context"
	"fmt"
	"sort"

	"oftec/internal/parallel"
)

// ParetoPoint is one point of the cooling-power / peak-temperature
// trade-off curve: the minimum cooling power achievable under a given
// thermal threshold.
type ParetoPoint struct {
	// TMax is the thermal threshold used for this point, kelvin.
	TMax float64
	// Feasible reports whether any operating point satisfies it.
	Feasible bool
	// Power is the minimized 𝒫 in watts (meaningless when infeasible).
	Power float64
	// MaxTemp is the achieved peak temperature in kelvin.
	MaxTemp float64
	// Omega and ITEC are the chosen operating point.
	Omega, ITEC float64
}

// ParetoFront traces the trade-off Optimization 1 navigates (Section 6.2:
// "OFTEC addresses the trade-off between the cooling power consumption
// and the maximum chip temperature") by re-running Algorithm 1 under a
// sweep of thermal thresholds, returned in descending threshold order.
//
// The thresholds are independent solves, so they are probed concurrently
// on a pool sized by Options.Workers (GOMAXPROCS by default; 1 forces the
// serial path). Monotonicity of the feasible set — once a threshold is
// infeasible, every tighter one is too — is enforced either way: the
// serial path short-circuits and never solves below the first infeasible
// threshold, while the parallel path probes all thresholds and applies
// the same cut as a post-pass, discarding any solver artifact below the
// frontier. Errors follow the same rule: a parallel probe that fails on a
// threshold the serial path would never have solved (below the frontier)
// is discarded with its point, so the two paths return identical fronts
// AND identical error outcomes — a backend that only misbehaves in the
// deep-infeasible region cannot fail the parallel front while the serial
// one succeeds.
func (s *System) ParetoFront(tmaxValues []float64, opts Options) ([]ParetoPoint, error) {
	if len(tmaxValues) == 0 {
		return nil, fmt.Errorf("core: Pareto sweep needs at least one threshold")
	}
	ambient := s.ev.Config().Ambient
	sorted := append([]float64(nil), tmaxValues...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for _, tmax := range sorted {
		if tmax <= ambient {
			return nil, fmt.Errorf("core: Pareto threshold %g K not above ambient %g K", tmax, ambient)
		}
	}

	workers := parallel.Workers(opts.Workers)
	if workers > len(sorted) {
		workers = len(sorted)
	}

	ctx := opts.Solver.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Every threshold's Run starts from the same point(s) — the domain
	// center, plus the corners under MultiStart. Submit them as one batch
	// up front so the probes (serial or concurrent) begin on cache hits;
	// priming both paths from the same batch keeps parallel ≡ serial
	// fronts bit-identical.
	if bnd, err := s.binding(nil); err == nil {
		s.primeStartBatch(ctx, bnd, opts, 1)
	}
	if workers == 1 {
		return s.paretoSerial(sorted, opts)
	}

	// The probe fan-out runs under the solver context when the caller set
	// one (service request deadlines): cancellation stops dispatching new
	// thresholds, and each in-flight Run already honors the same context
	// at its iteration boundaries.
	out := make([]ParetoPoint, len(sorted))
	errs := make([]error, len(sorted))
	err := parallel.ForEach(ctx, len(sorted), workers, func(i int) error {
		tmax := sorted[i]
		o := opts
		o.TMax = tmax
		res, err := s.paretoRun(o)
		if err != nil {
			// Don't fail the fan-out here: whether this error matters
			// depends on where the monotonicity cut lands, which is only
			// known once every looser threshold has reported. The post-pass
			// below surfaces exactly the errors the serial path would hit.
			errs[i] = err
			return nil
		}
		pt := ParetoPoint{TMax: tmax}
		if res.Feasible {
			pt.Feasible = true
			pt.Power = res.CoolingPower()
			pt.MaxTemp = res.Result.MaxChipTemp
			pt.Omega, pt.ITEC = res.Omega, res.ITEC
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Monotonicity post-pass in descending threshold order: below the
	// first infeasible threshold the serial path never solves, so blank
	// any speculative result — or swallow any speculative error — there.
	// An error at or above the frontier is one the serial path would have
	// hit (it solves every threshold down to and including the first
	// infeasible one), and the first such error in descending order is the
	// one the serial path reports.
	infeasibleBelow := false
	for i := range out {
		if infeasibleBelow {
			out[i] = ParetoPoint{TMax: sorted[i]}
			continue
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("core: Pareto threshold %g K: %w", sorted[i], errs[i])
		}
		if !out[i].Feasible {
			infeasibleBelow = true
		}
	}
	return out, nil
}

// paretoRun dispatches one threshold's solve: the test seam when
// installed, the real Algorithm 1 run otherwise.
func (s *System) paretoRun(o Options) (*Outcome, error) {
	if h := s.paretoRunHook; h != nil {
		return h(o)
	}
	return s.Run(o)
}

// paretoSerial is the reference implementation: descending thresholds
// with a live monotonicity short circuit (no solves below the first
// infeasible threshold).
func (s *System) paretoSerial(sorted []float64, opts Options) ([]ParetoPoint, error) {
	out := make([]ParetoPoint, 0, len(sorted))
	infeasibleBelow := false
	for _, tmax := range sorted {
		if ctx := opts.Solver.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pt := ParetoPoint{TMax: tmax}
		if !infeasibleBelow {
			o := opts
			o.TMax = tmax
			res, err := s.paretoRun(o)
			if err != nil {
				return nil, fmt.Errorf("core: Pareto threshold %g K: %w", tmax, err)
			}
			if res.Feasible {
				pt.Feasible = true
				pt.Power = res.CoolingPower()
				pt.MaxTemp = res.Result.MaxChipTemp
				pt.Omega, pt.ITEC = res.Omega, res.ITEC
			} else {
				infeasibleBelow = true
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
