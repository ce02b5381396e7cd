package thermal

import (
	"fmt"
	"math"

	"oftec/internal/sparse"
	"oftec/internal/units"
)

// Result holds one steady-state evaluation of the cooling package.
type Result struct {
	// Omega and ITEC echo the operating point (rad/s, A).
	Omega, ITEC float64

	// Runaway marks a thermal-runaway operating point; when set, the
	// temperature and power figures below are +Inf (the paper: "the value
	// of 𝒫 and 𝒯 tends to infinity for small values of ω").
	Runaway bool

	// T is the full node temperature vector in kelvin (nil on runaway).
	T []float64
	// ChipTemps is the chip-layer cell temperatures in kelvin.
	ChipTemps []float64
	// MaxChipTemp is 𝒯 = max over chip cells, kelvin.
	MaxChipTemp float64
	// MaxChipCell is the index of the hottest chip cell (-1 on runaway).
	MaxChipCell int

	// PLeakage, PTEC, PFan are the three terms of Equation (10), watts.
	PLeakage, PTEC, PFan float64

	// PDynamic is the (input) dynamic power, watts.
	PDynamic float64

	// SolveStats reports the inner sparse solve.
	SolveStats sparse.Stats
	// OuterIterations counts fixed-point iterations for EvaluateExact.
	OuterIterations int
}

// CoolingPower returns 𝒫 = P_leakage + P_TEC + P_fan (Equation (10)).
func (r *Result) CoolingPower() float64 {
	return r.PLeakage + r.PTEC + r.PFan
}

// MeetsConstraint reports whether every chip element is strictly below
// tMax (constraint (15)).
func (r *Result) MeetsConstraint(tMax float64) bool {
	return !r.Runaway && r.MaxChipTemp < tMax
}

// String renders a compact summary.
func (r *Result) String() string {
	if r.Runaway {
		return fmt.Sprintf("ω=%.0f rad/s I=%.2f A: THERMAL RUNAWAY", r.Omega, r.ITEC)
	}
	return fmt.Sprintf("ω=%.0f rad/s I=%.2f A: Tmax=%.2f°C 𝒫=%.2fW (leak %.2f + tec %.2f + fan %.2f)",
		r.Omega, r.ITEC, units.KToC(r.MaxChipTemp), r.CoolingPower(), r.PLeakage, r.PTEC, r.PFan)
}

// runawayResult builds the infinite-objective result for a runaway point.
//
//oftec:allocok result materialization; runs once per miss, then memoized by version
func (m *Model) runawayResult(omega, iTEC float64, stats sparse.Stats) *Result {
	return &Result{
		Omega:       omega,
		ITEC:        iTEC,
		Runaway:     true,
		MaxChipTemp: math.Inf(1),
		MaxChipCell: -1,
		PLeakage:    math.Inf(1),
		PTEC:        m.tecPowerAt(nil, iTEC),
		PFan:        m.act.Power(omega),
		PDynamic:    m.DynamicPowerTotal(),
		SolveStats:  stats,
	}
}

// tecPowerAt computes Equation (12) for a uniform driving current.
func (m *Model) tecPowerAt(t []float64, iTEC float64) float64 {
	return m.tecPowerFunc(t, m.uniformCurrent(iTEC))
}

// tecPowerFunc computes Equation (12): Σ over modules of R·I² + α·ΔT·I,
// with a per-cell current. With a nil temperature vector only the Joule
// part is returned.
func (m *Model) tecPowerFunc(t []float64, cur func(int) float64) float64 {
	var p float64
	for i, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		iTEC := cur(i)
		p += m.tecR[i] * iTEC * iTEC
		if t != nil {
			dT := t[m.node(planeTECHot, i)] - t[m.node(planeTECCold, i)]
			p += alpha * dT * iTEC
		}
	}
	return p
}

// buildResult materializes the Result record for a converged solve; cur is
// the per-cell TEC current the system was assembled at and iTEC the
// largest of them.
//
//oftec:allocok result materialization; runs once per miss, then memoized by version
func (m *Model) buildResult(omega, iTEC float64, cur func(int) float64, t []float64, stats sparse.Stats, linearLeak bool) *Result {
	nc := m.grids[planeChip].NumCells()
	res := &Result{
		Omega:       omega,
		ITEC:        iTEC,
		T:           t,
		ChipTemps:   make([]float64, nc),
		MaxChipCell: -1,
		PFan:        m.act.Power(omega),
		PDynamic:    m.DynamicPowerTotal(),
		SolveStats:  stats,
	}
	for i := 0; i < nc; i++ {
		ti := t[m.node(planeChip, i)]
		res.ChipTemps[i] = ti
		if ti > res.MaxChipTemp {
			res.MaxChipTemp = ti
			res.MaxChipCell = i
		}
		if linearLeak {
			res.PLeakage += m.leakA[i]*(ti-m.leakTref) + m.leakB[i]
		} else {
			res.PLeakage += m.leakP0[i] * math.Exp(m.leakBeta*(ti-m.leakT0))
		}
	}
	res.PTEC = m.tecPowerFunc(t, cur)
	return res
}

// InstantaneousPowers computes the leakage and TEC electrical power for an
// arbitrary node-temperature field at the given TEC current, using the
// Taylor-linearized leakage. Transient simulations use this to account
// cooling power along a trajectory.
func (m *Model) InstantaneousPowers(temps []float64, itec float64) (leak, tec float64, err error) {
	if len(temps) != m.n {
		return 0, 0, fmt.Errorf("thermal: temperature field has %d nodes, model has %d", len(temps), m.n)
	}
	nc := m.grids[planeChip].NumCells()
	for i := 0; i < nc; i++ {
		ti := temps[m.node(planeChip, i)]
		leak += m.leakA[i]*(ti-m.leakTref) + m.leakB[i]
	}
	return leak, m.tecPowerAt(temps, itec), nil
}

// PlaneTemps returns the temperatures of the named plane ("chip", "tim1",
// "tec_abs", "tec_gen", "tec_rej", "spreader", "tim2", "sink", "pcb") from
// a result, for inspection and plotting.
func (m *Model) PlaneTemps(res *Result, plane string) ([]float64, error) {
	if res.Runaway {
		return nil, fmt.Errorf("thermal: no temperature field for a runaway result")
	}
	for p := 0; p < numPlanes; p++ {
		if planeNames[p] == plane {
			g := m.grids[p]
			out := make([]float64, g.NumCells())
			for i := range out {
				out[i] = res.T[m.node(p, i)]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("thermal: unknown plane %q", plane)
}

// EnergyBalance returns the net heat imbalance of a steady-state result in
// watts: (dynamic + leakage + TEC electrical power) − (heat flowing to
// ambient through the sink and PCB paths). It should be close to zero for
// a converged solve; tests assert this.
func (m *Model) EnergyBalance(res *Result) (float64, error) {
	if res.Runaway {
		return 0, fmt.Errorf("thermal: no energy balance for a runaway result")
	}
	in := res.PDynamic + res.PLeakage + res.PTEC

	var out float64
	g := m.act.Conductance(res.Omega)
	for i, frac := range m.sinkFrac {
		out += g * frac * (res.T[m.node(planeSink, i)] - m.cfg.Ambient)
	}
	pcb := m.grids[planePCB]
	per := m.cfg.PCBToAmbient / float64(pcb.NumCells())
	for i := 0; i < pcb.NumCells(); i++ {
		out += per * (res.T[m.node(planePCB, i)] - m.cfg.Ambient)
	}
	bal := in - out
	if math.IsNaN(bal) || math.IsInf(bal, 0) {
		return 0, fmt.Errorf("thermal: energy balance is not finite")
	}
	return bal, nil
}

// HottestUnit maps the hottest chip cell back to the floorplan unit that
// contains its center.
func (m *Model) HottestUnit(res *Result) (string, error) {
	if res.Runaway || res.MaxChipCell < 0 {
		return "", fmt.Errorf("thermal: no hottest unit for a runaway result")
	}
	g := m.grids[planeChip]
	r, c := g.RowCol(res.MaxChipCell)
	x, y := g.CellCenter(r, c)
	u, ok := m.cfg.Floorplan.UnitAt(x, y)
	if !ok {
		return "", fmt.Errorf("thermal: hottest cell center (%g, %g) outside floorplan", x, y)
	}
	return u.Name, nil
}
