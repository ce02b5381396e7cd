package thermal

import (
	"errors"
	"fmt"
	"math"

	"oftec/internal/sparse"
)

// ErrRunaway is wrapped by the error of a transient step whose chip
// maximum passes the configuration's runaway temperature
// (Config.RunawayTemp, 500 K by default), the threshold past which a
// steady solve reports Result.Runaway. The integration stops there
// instead of reporting such a field as temperatures.
var ErrRunaway = errors.New("thermal: thermal runaway")

// Transient integrates the thermal RC network through time with the
// backward-Euler method:
//
//	(G(ω) − S(I, leakage) + C/Δt) · T_{n+1} = P + (C/Δt) · T_n
//
// where C is the diagonal heat-capacity matrix assembled from the layer
// volumetric heat capacities. Backward Euler is unconditionally stable, so
// large steps remain well-behaved even near runaway operating points
// (temperatures then grow monotonically instead of oscillating).
//
// The operating point (ω, I_TEC) may change between steps, which is what
// the paper's transient-boost discussion exploits: the Peltier effect acts
// immediately while Joule heat arrives with the thermal time constant of
// the stack, so briefly over-driving the TECs yields extra cooling
// (Section 6.2, citing ref [8]).
type Transient struct {
	model *Model
	caps  []float64 // per-node heat capacity, J/K

	omega, itec float64
	temps       []float64
	// next receives each step's solve; a step that succeeds swaps it
	// with temps, so a failed one leaves the state as it was.
	next []float64
	now  float64

	// ic is the modified IC(0) factor of the step matrix at icKey's
	// (ω, I, Δt), nil when that matrix does not factor. icKey starts as
	// NaNs, which key no step.
	ic    *sparse.ICPreconditioner
	icKey [3]float64
}

// NewTransient creates a transient simulation starting from the given
// temperature field, or from a uniform ambient field when t0 is nil.
func (m *Model) NewTransient(omega, itec float64, t0 []float64) (*Transient, error) {
	if err := m.checkOperatingPoint(omega, itec); err != nil {
		return nil, err
	}
	nan := math.NaN()
	tr := &Transient{model: m, omega: omega, itec: itec, icKey: [3]float64{nan, nan, nan}}
	tr.temps = make([]float64, m.n)
	tr.next = make([]float64, m.n)
	if t0 != nil {
		if len(t0) != m.n {
			return nil, fmt.Errorf("thermal: initial state has %d nodes, model has %d", len(t0), m.n)
		}
		copy(tr.temps, t0)
	} else {
		sparse.Fill(tr.temps, m.cfg.Ambient)
	}
	tr.caps = m.heatCapacities()
	return tr, nil
}

// heatCapacities assembles the lumped heat capacity of every node. The
// three TEC circuit planes share the physical TEC layer's capacity in a
// 1/4 : 1/2 : 1/4 split (interface, body, interface).
func (m *Model) heatCapacities() []float64 {
	caps := make([]float64, m.n)
	for p := 0; p < numPlanes; p++ {
		g := m.grids[p]
		c := g.CellHeatCapacity()
		switch p {
		case planeTECCold, planeTECHot:
			c *= 0.25
		case planeTECMid:
			c *= 0.5
		}
		for i := 0; i < g.NumCells(); i++ {
			caps[m.node(p, i)] = c
		}
	}
	return caps
}

// Time returns the simulated time in seconds.
func (tr *Transient) Time() float64 { return tr.now }

// OperatingPoint returns the current (ω, I_TEC).
func (tr *Transient) OperatingPoint() (omega, itec float64) { return tr.omega, tr.itec }

// SetOperatingPoint changes the fan speed and TEC current for subsequent
// steps (controller actuation).
func (tr *Transient) SetOperatingPoint(omega, itec float64) error {
	if err := tr.model.checkOperatingPoint(omega, itec); err != nil {
		return err
	}
	tr.omega, tr.itec = omega, itec
	return nil
}

// Temperatures returns the current node temperature vector: a live
// slice, which the next Step may overwrite, so callers must not modify it
// and must copy what they keep past the next Step.
func (tr *Transient) Temperatures() []float64 { return tr.temps }

// ChipState summarizes the chip layer at the current instant.
func (tr *Transient) ChipState() (maxTemp float64, temps []float64) {
	m := tr.model
	temps = make([]float64, m.grids[planeChip].NumCells())
	for i := range temps {
		temps[i] = tr.temps[m.node(planeChip, i)]
	}
	return m.chipMax(tr.temps), temps
}

// Step advances the simulation by dt seconds with one backward-Euler
// solve and returns the maximum chip temperature after the step. The
// backward-Euler system is the steady-state matrix plus C/Δt on the
// diagonal, assembled through the shared symbolic pattern (the shift is
// diagonal, so the pattern is unchanged). The Transient owns the full
// IC(0) factor of that matrix and refactors it only when (ω, I, Δt)
// differs from the key it last factored, so a fixed-step integration
// pays one factorization; the ω-slice factor steady solves use would fit
// poorly, since the C/Δt patch touches every row. A step matrix that does
// not factor leaves a nil factor, which fails every step at its key
// without another attempt. That failure, a CG breakdown, or a chip
// maximum past the runaway temperature (wrapping ErrRunaway) is an error,
// and the state does not advance. The solve writes into a field the
// Transient owns, so a step allocates no solution vector.
func (tr *Transient) Step(dt float64) (float64, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return 0, fmt.Errorf("thermal: step size %g must be positive and finite", dt)
	}
	m := tr.model
	sc := m.getScratch()
	defer m.putScratch(sc)
	tr.assemble(sc, dt)
	if key := [3]float64{tr.omega, tr.itec, dt}; key != tr.icKey {
		tr.icKey = key
		var err error
		if tr.ic, err = m.icSym.Factor(sc.mat); err != nil {
			tr.ic = nil
		}
	}
	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, X0: tr.temps, Work: &sc.ws}
	if _, err := sparse.CGPrecondInto(tr.next, sc.mat, sc.rhs, tr.ic, opts); err != nil {
		return 0, fmt.Errorf("thermal: transient solve failed at t=%g: %w", tr.now, err)
	}
	maxTemp := m.chipMax(tr.next)
	if limit := m.cfg.runawayTemp(); !(maxTemp <= limit) {
		return 0, fmt.Errorf("thermal: transient step at t=%g reaches %.4g K on the chip, past %g K: %w", tr.now, maxTemp, limit, ErrRunaway)
	}
	tr.temps, tr.next = tr.next, tr.temps
	tr.now += dt
	return maxTemp, nil
}

// chipMax returns the largest chip-plane temperature of the field t.
func (m *Model) chipMax(t []float64) float64 {
	var maxTemp float64
	for i := 0; i < m.grids[planeChip].NumCells(); i++ {
		maxTemp = max(maxTemp, t[m.node(planeChip, i)])
	}
	return maxTemp
}

// assemble writes the backward-Euler system of a dt step from the current
// state into sc.
func (tr *Transient) assemble(sc *evalScratch, dt float64) {
	m := tr.model
	sparse.Fill(sc.cur, tr.itec)
	m.assembleInto(sc, tr.omega, sc.cur, true, nil)
	for i, c := range tr.caps {
		cdt := c / dt
		sc.vals[m.diagIdx[i]] += cdt
		sc.rhs[i] += cdt * tr.temps[i]
	}
}

// SteadyStateGap returns the infinity-norm difference between the current
// transient field and the steady state at the current operating point;
// useful for asserting convergence in tests.
func (tr *Transient) SteadyStateGap() (float64, error) {
	res, err := tr.model.Evaluate(tr.omega, tr.itec)
	if err != nil {
		return 0, err
	}
	if res.Runaway {
		return math.Inf(1), nil
	}
	var gap float64
	for i, temp := range tr.temps {
		if d := math.Abs(temp - res.T[i]); d > gap {
			gap = d
		}
	}
	return gap, nil
}
