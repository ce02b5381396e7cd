package core

import (
	"fmt"
	"sort"
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
// sweep of thermal thresholds, in descending threshold order, each with
// opts. Once a threshold is infeasible every tighter one is too, so the
// sweep solves nothing below the first infeasible threshold and reports
// the rest as bare infeasible points. The first solve error, in
// descending order, fails the sweep and names its threshold; a cancelled
// opts.Solver.Ctx stops it before the next threshold.
func (s *System) ParetoFront(tmaxValues []float64, opts Options) ([]ParetoPoint, error) {
	if err := s.CheckPareto(tmaxValues); err != nil {
		return nil, err
	}
	return paretoSweep(tmaxValues, opts, s.Run)
}

// paretoSweep is ParetoFront's loop over checked thresholds, with run
// solving one threshold.
func paretoSweep(tmaxValues []float64, opts Options, run func(Options) (*Outcome, error)) ([]ParetoPoint, error) {
	sorted := append([]float64(nil), tmaxValues...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
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
			res, err := run(o)
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

// CheckPareto returns the error ParetoFront would report for tmaxValues
// before its first solve: an empty sweep, or a threshold (kelvin) not
// above the ambient, which no cooling can reach.
func (s *System) CheckPareto(tmaxValues []float64) error {
	if len(tmaxValues) == 0 {
		return fmt.Errorf("core: Pareto sweep needs at least one threshold")
	}
	ambient := s.ev.Config().Ambient
	for _, tmax := range tmaxValues {
		if !(tmax > ambient) {
			return fmt.Errorf("core: Pareto threshold %g K not above ambient %g K", tmax, ambient)
		}
	}
	return nil
}
