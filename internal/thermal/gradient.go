package thermal

import (
	"fmt"
	"math"

	"oftec/internal/sparse"
)

// DefaultSmoothBound is the default a-priori bound, in kelvin, on the
// log-sum-exp over-estimate of the max chip temperature: the smoothing
// temperature τ is chosen as bound/ln(n_chip), which guarantees
// max ≤ 𝒯_τ ≤ max + bound. It matches the optimizer's default constraint
// margin, so a design feasible under the smoothed constraint is feasible
// under the true max with at most one extra margin of slack.
const DefaultSmoothBound = 0.05

// SmoothMaxTau returns the log-sum-exp temperature scale τ that bounds the
// smoothing over-estimate by the given bound (kelvin) across n terms:
// τ = bound/ln(n). With a single term the LSE is exact and τ only needs to
// be positive.
func SmoothMaxTau(n int, bound float64) float64 {
	if math.IsNaN(bound) || math.IsInf(bound, 0) || bound <= 0 {
		bound = DefaultSmoothBound
	}
	if n <= 1 {
		return bound
	}
	return bound / math.Log(float64(n))
}

// SmoothMax computes the temperature-scaled log-sum-exp soft maximum
// 𝒯_τ = τ·ln Σ exp((T_i − T*)/τ) + T* with T* = max T_i (the shift keeps
// every exponent ≤ 0, so the sum never overflows). The soft max brackets
// the true max from above: max ≤ 𝒯_τ ≤ max + τ·ln n.
func SmoothMax(temps []float64, tau float64) float64 {
	if len(temps) == 0 || tau <= 0 {
		return math.Inf(-1)
	}
	tstar := temps[0]
	for _, t := range temps[1:] {
		if t > tstar {
			tstar = t
		}
	}
	// A non-finite max poisons the shifted exponents (Inf − Inf = NaN);
	// the soft max of such a field is the max itself.
	if math.IsNaN(tstar) || math.IsInf(tstar, 0) {
		return tstar
	}
	var sum float64
	for _, t := range temps {
		sum += math.Exp((t - tstar) / tau)
	}
	return tau*math.Log(sum) + tstar
}

// softmaxWeights writes the gradient of SmoothMax into w:
// w_i = exp((T_i − T*)/τ) / Σ_j exp((T_j − T*)/τ). The weights are a
// convex combination (they sum to one), concentrated on the hottest cells.
func softmaxWeights(w, temps []float64, tau float64) {
	tstar := temps[0]
	for _, t := range temps[1:] {
		if t > tstar {
			tstar = t
		}
	}
	var sum float64
	for i, t := range temps {
		w[i] = math.Exp((t - tstar) / tau)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
}

// Gradient holds one adjoint evaluation: the steady state plus the exact
// derivatives of the two optimizer objectives with respect to the design
// vector x = (ω, I₁..I_k).
type Gradient struct {
	// Result is the steady state the gradients are taken at (shared with
	// the evaluation memo; read-only).
	Result *Result

	// PowerGrad is ∇𝒫 = (∂𝒫/∂ω, ∂𝒫/∂I₁..∂𝒫/∂I_k) for the cooling power
	// 𝒫 = P_leak + P_TEC + P_fan of Equation (10).
	PowerGrad []float64
	// TempGrad is ∇𝒯_τ for the log-sum-exp soft maximum of the chip
	// temperatures (the smoothed constraint (15)).
	TempGrad []float64

	// SmoothMaxTemp is 𝒯_τ itself, with Tau the temperature scale used
	// and SmoothBound the a-priori over-estimate bound τ·ln n_chip, so
	// callers can report exactly how conservative the smoothed constraint
	// is: MaxChipTemp ≤ SmoothMaxTemp ≤ MaxChipTemp + SmoothBound.
	SmoothMaxTemp float64
	Tau           float64
	SmoothBound   float64

	// AdjointStats aggregates the two adjoint solves (summed iterations,
	// max relative residual).
	AdjointStats sparse.Stats
}

// EvaluateGrad computes the steady state at p under zoning z (nil is the
// one-zone deployment) and the exact gradients of 𝒫 and the smoothed 𝒯
// via the adjoint method; the gradients have length 1+k, ordered
// (ω, I₁..I_k). The system G(ω,I)·T = b(ω,I) is symmetric, so each
// objective costs one extra solve Gᵀλ = ∂j/∂T on the already-assembled
// matrix, reusing the cached ω-slice IC(0) factorization — one forward +
// one backward triangular sweep per preconditioner application, no new
// factorization, instead of the k+1 full solves a finite-difference
// gradient burns.
func (m *Model) EvaluateGrad(z *Zoning, p Point) (*Gradient, error) {
	z = m.zoningOr(z)
	res, err := m.EvaluateWarm(z, p, nil)
	if err != nil {
		return nil, err
	}
	return m.gradientAt(res, z, p)
}

// gradientAt runs the two adjoint solves and assembles the derivative
// formulas. The design enters the system G(x)T = b(x) only through
// diagonal matrix patches and RHS injections (assembleInto), so with
// λ = G⁻ᵀ(∂j/∂T) the chain rule
//
//	dJ/dx = ∂j/∂x + λᵀ(∂b/∂x − (∂G/∂x)·T)
//
// reduces to a handful of O(n) dot products over the sink and TEC nodes.
//
//oftec:allocok two solution vectors per gradient by SolveAuto contract; scratch is pooled
func (m *Model) gradientAt(res *Result, z *Zoning, p Point) (*Gradient, error) {
	omega := p.Omega
	if res.Runaway {
		return nil, fmt.Errorf("thermal: cannot differentiate a runaway operating point (ω=%g)", omega)
	}
	k := z.numZones
	nc := len(res.ChipTemps)
	tau := SmoothMaxTau(nc, DefaultSmoothBound)
	g := &Gradient{
		Result:        res,
		PowerGrad:     make([]float64, 1+k),
		TempGrad:      make([]float64, 1+k),
		Tau:           tau,
		SmoothMaxTemp: SmoothMax(res.ChipTemps, tau),
	}
	if nc > 1 {
		g.SmoothBound = tau * math.Log(float64(nc))
	}

	sc := m.getScratch()
	defer m.putScratch(sc)
	// Re-assemble the exact system the steady state solved; only the
	// matrix is needed (the adjoint RHS replaces b), but assembleInto
	// refreshes both in one O(nnz) pass.
	sc.loadCurrents(z, p.Currents)
	m.assembleInto(sc, omega, sc.cell, true, nil)

	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, Work: &sc.ws}
	if ic, ok := m.slicePrecond(omega); ok {
		opts.Precond = ic
	}

	// Adjoint of the power objective: ∂𝒫/∂T is the Taylor leakage slope
	// at the chip nodes plus ±α·I at the Peltier interface nodes.
	adjRHS := sc.warm
	sparse.Fill(adjRHS, 0)
	for i := 0; i < nc; i++ {
		adjRHS[m.node(planeChip, i)] = m.leakA[i]
	}
	for i, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		iz := sc.cur[i]
		adjRHS[m.node(planeTECHot, i)] += alpha * iz
		adjRHS[m.node(planeTECCold, i)] -= alpha * iz
	}
	lamP, stP, err := sparse.SolveTranspose(sc.mat, adjRHS, opts)
	if err != nil {
		return nil, fmt.Errorf("thermal: power adjoint solve: %w", err)
	}

	// Adjoint of the smoothed max temperature: ∂𝒯_τ/∂T is the softmax
	// weight vector on the chip nodes.
	sparse.Fill(adjRHS, 0)
	w := sc.tChip
	softmaxWeights(w, res.ChipTemps, tau)
	for i := 0; i < nc; i++ {
		adjRHS[m.node(planeChip, i)] = w[i]
	}
	lamT, stT, err := sparse.SolveTranspose(sc.mat, adjRHS, opts)
	if err != nil {
		return nil, fmt.Errorf("thermal: temperature adjoint solve: %w", err)
	}
	g.AdjointStats = sparse.Stats{
		Iterations: stP.Iterations + stT.Iterations,
		Residual:   math.Max(stP.Residual, stT.Residual),
	}

	// ω: the design enters through the sink conductance g(ω) (matrix
	// diagonal + ambient RHS) and the explicit fan power c·ω³.
	g.PowerGrad[0] = m.act.DPowerDU(omega)
	if dg := m.act.DConductanceDU(omega); dg != 0 {
		var sP, sT float64
		for i, frac := range m.sinkFrac {
			n := m.node(planeSink, i)
			d := dg * frac * (m.cfg.Ambient - res.T[n])
			sP += lamP[n] * d
			sT += lamT[n] * d
		}
		g.PowerGrad[0] += sP
		g.TempGrad[0] += sT
	}

	// I_z: explicit TEC electrical power 2R·I + α·ΔT per module, plus the
	// adjoint contraction of the Peltier diagonal patches (∓α on the
	// cold/hot diagonals) and the Joule RHS injection (2R·I at the gen
	// node).
	for i, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		zi := z.zoneOf[i]
		iz := sc.cur[i]
		cold := m.node(planeTECCold, i)
		mid := m.node(planeTECMid, i)
		hot := m.node(planeTECHot, i)
		tc, th := res.T[cold], res.T[hot]
		joule := 2 * m.tecR[i] * iz
		g.PowerGrad[1+zi] += joule + alpha*(th-tc) +
			lamP[mid]*joule - lamP[cold]*alpha*tc + lamP[hot]*alpha*th
		g.TempGrad[1+zi] += lamT[mid]*joule - lamT[cold]*alpha*tc + lamT[hot]*alpha*th
	}
	return g, nil
}
