package core

import (
	"fmt"
	"time"

	"oftec/internal/floorplan"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/units"
)

// ZonedOutcome reports a zoned-control run: one fan speed plus one TEC
// current per zone.
type ZonedOutcome struct {
	Omega    float64
	Currents []float64
	// Result is the steady state at the operating point, certified by the
	// authoritative end of the backend chain.
	Result   *thermal.Result
	Feasible bool
	// FailedAtOpt2 marks Algorithm 1's "Return failed" branch: even the
	// minimized peak temperature exceeds T_max.
	FailedAtOpt2 bool
	// MinMaxTemp is the 𝒯 achieved by the feasibility phase.
	MinMaxTemp float64
	Runtime    time.Duration
	// Report and Opt2Report expose the raw solver reports of the power
	// and feasibility phases.
	Report, Opt2Report solver.Report
}

// CoolingPower returns 𝒫 at the chosen operating point.
func (o *ZonedOutcome) CoolingPower() float64 {
	if o.Result == nil {
		return 0
	}
	return o.Result.CoolingPower()
}

// String renders a one-line summary.
func (o *ZonedOutcome) String() string {
	status := "feasible"
	if !o.Feasible {
		status = "INFEASIBLE"
	}
	return fmt.Sprintf("zoned(%d): ω*=%.0f RPM I*=%v A, %s, %v",
		len(o.Currents), units.RadPerSecToRPM(o.Omega), o.Currents, status,
		o.Runtime.Round(time.Millisecond))
}

// RunZoned executes Algorithm 1 with the decision vector (ω, I_1..I_k):
// the feasibility phase minimizes the peak temperature, then the power
// phase minimizes 𝒫 under the thermal constraint. It is the "deployment
// and control" generalization: the single series string of the paper is
// the k = 1 special case (bit-identical to Run — the backend routes a
// one-zone point onto the scalar path), so any zoned optimum is at least
// as good, for k ≤ 6. From k = 7 on, SQP's QP subproblem has 1 + 2(1+k)
// constraint rows, more than the 16 it enumerates: every QP fails, and
// the run stops at its start point with stop reason restored, feasible
// but not optimized. The run shares the scalar path's machinery: modes,
// solver fallback, multistart, anchored warm starts, and the System's
// evaluation cache (in a zone-keyed space of its own).
func (s *System) RunZoned(zoning *thermal.Zoning, opts Options) (*ZonedOutcome, error) {
	start := time.Now()
	if zoning == nil {
		return nil, fmt.Errorf("core: RunZoned needs a zoning")
	}
	bnd, err := s.binding(zoning)
	if err != nil {
		return nil, err
	}
	v, err := s.runVector(bnd, zoning.NumZones(), opts)
	if err != nil {
		return nil, err
	}
	out := &ZonedOutcome{
		Omega:        v.x[0],
		Currents:     append([]float64(nil), v.x[1:]...),
		Result:       v.result,
		Feasible:     v.feasible,
		FailedAtOpt2: v.failedAtOpt2,
		MinMaxTemp:   v.minMaxTemp,
		Report:       v.opt1,
		Opt2Report:   v.opt2,
		Runtime:      time.Since(start),
	}
	return out, nil
}

// ClusterZones returns the canonical 3-zone assignment for the EV6
// floorplan: zone 0 the L2/cache periphery, zone 1 the floating-point
// cluster, zone 2 the integer cluster (where the suite's hot spots live).
func ClusterZones() (map[string]int, int) {
	return map[string]int{
		floorplan.UnitL2Left:  0,
		floorplan.UnitL2:      0,
		floorplan.UnitL2Right: 0,
		floorplan.UnitIcache:  0,
		floorplan.UnitITB:     0,
		floorplan.UnitDTB:     0,
		floorplan.UnitLdStQ:   2,
		floorplan.UnitDcache:  0,
		floorplan.UnitFPAdd:   1,
		floorplan.UnitFPMul:   1,
		floorplan.UnitFPReg:   1,
		floorplan.UnitFPMap:   1,
		floorplan.UnitFPQ:     1,
		floorplan.UnitIntMap:  2,
		floorplan.UnitIntQ:    2,
		floorplan.UnitIntReg:  2,
		floorplan.UnitIntExec: 2,
		floorplan.UnitBpred:   2,
	}, 3
}
