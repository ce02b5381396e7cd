package thermal

import (
	"context"
	"fmt"
	"math"

	"oftec/internal/parallel"
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
	// Result is the steady state the gradients are taken at. The Result
	// and the Gradient itself are shared through the model memo;
	// read-only.
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
	// max relative residual). The solves run concurrently, so the sum
	// counts work, not wall time.
	AdjointStats sparse.Stats
}

// EvaluateGrad computes the steady state at p under zoning z (nil is the
// one-zone deployment) and the exact gradients of 𝒫 and the smoothed 𝒯
// via the adjoint method; the gradients have length 1+k, ordered
// (ω, I₁..I_k). The system G(ω,I)·T = b(ω,I) is symmetric, so each
// objective costs one extra solve Gᵀλ = ∂j/∂T on the re-assembled
// matrix, both under one ω-slice IC(0) factorization, instead of the k+1
// full solves a finite-difference gradient burns. The two solves run
// concurrently (see gradientAt), and the Gradient is bit-identical at
// any GOMAXPROCS.
//
// The Gradient is memoized with its point's Result (see memoKey), so a
// repeat — the constraint gradient after the objective gradient at one
// SQP iterate — returns the identical *Gradient without another adjoint
// pair. A point that cannot be differentiated (runaway) is not memoized:
// its forward Result is, so a repeat costs only the check.
func (m *Model) EvaluateGrad(z *Zoning, p Point) (*Gradient, error) {
	z = m.zoningOr(z)
	maxCur, err := m.checkPoint(z, p)
	if err != nil {
		return nil, err
	}
	// The forward solve and the adjoint pair share one scratch, and so
	// one memo key.
	sc := m.getScratch()
	defer m.putScratch(sc)
	key := sc.memoKey(z, true, p.Omega, p.Currents)
	if e, _ := m.loadMemo(key); e.grad != nil {
		return e.grad, nil
	}
	res := m.evaluateIn(sc, z, p, maxCur, nil)
	g, err := m.gradientAt(sc, res, z, p)
	if err != nil {
		return nil, err
	}
	return m.storeGrad(key, g), nil
}

// gradientAt runs the two adjoint solves and assembles the derivative
// formulas, using sc's matrix and solve scratch (never its memo key). The
// design enters the system G(x)T = b(x) only through diagonal matrix
// patches and RHS injections (assembleInto), so with λ = G⁻ᵀ(∂j/∂T) the
// chain rule
//
//	dJ/dx = ∂j/∂x + λᵀ(∂b/∂x − (∂G/∂x)·T)
//
// reduces to a handful of O(n) dot products over the sink and TEC nodes.
//
// The two adjoints are independent. Both right-hand sides are built
// before either solve starts, the power adjoint's in sc.warm and the
// temperature adjoint's in sc.rhs, whose forward right-hand side the
// adjoints do not read. The solves share the assembled matrix and the
// ω-slice IC(0) factor, factored into sc, which they only read, and each
// brings its own CG workspace: the power adjoint sc's, the temperature
// adjoint one from the network's pool, so a gradient holds one
// evaluation scratch. parallel.ForEach runs them concurrently, or as
// the serial loop at GOMAXPROCS=1. Each solve's arithmetic is the same
// under either schedule, so the Gradient is bit-identical at any width,
// and the power adjoint's error wins as it would in a serial loop.
//
//oftec:allocok two solution vectors per gradient by CGPrecond contract, plus the fan-out's closure, join state and worker goroutines; scratch is pooled
func (m *Model) gradientAt(sc *evalScratch, res *Result, z *Zoning, p Point) (*Gradient, error) {
	if res.Runaway {
		return nil, fmt.Errorf("thermal: cannot differentiate a runaway operating point (ω=%g)", p.Omega)
	}
	g, opts := m.adjointSystem(sc, sc.rhs, res, z, p)
	ic := m.factorSlice(sc)
	tws := m.adjointWork.Get().(*sparse.Workspace)
	defer m.adjointWork.Put(tws)

	rhs := [2][]float64{sc.warm, sc.rhs}
	work := [2]*sparse.Workspace{&sc.ws, tws}
	var lam [2][]float64
	var st [2]sparse.Stats
	err := parallel.ForEach(context.Background(), 2, 0, func(i int) error {
		o := opts
		o.Work = work[i]
		var err error
		if lam[i], st[i], err = sparse.CGPrecond(sc.mat, rhs[i], ic, o); err != nil {
			return fmt.Errorf("thermal: %s adjoint solve: %w", [2]string{"power", "temperature"}[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.contractAdjoints(g, z, p.Omega, sc.cur, lam, st)
	return g, nil
}

// adjointSystem prepares the adjoint pair at p, whose steady state is
// res. It re-assembles the exact system the steady state solved into
// sc.mat, writes the power adjoint's right-hand side into sc.warm and the
// temperature adjoint's into rhsT (which may be sc.rhs: it is written
// after the assembly), and returns the Gradient with its
// smoothed-max fields set, together with the options both solves run
// under (Work left for each solve to supply).
func (m *Model) adjointSystem(sc *evalScratch, rhsT []float64, res *Result, z *Zoning, p Point) (*Gradient, sparse.SolveOptions) {
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

	// Only the matrix is needed (the adjoint right-hand sides replace b),
	// but assembleInto refreshes both in one O(n) pass. The system is
	// symmetric (see buildSymbolic), so each adjoint solve Aᵀλ = ∂j/∂T is
	// a forward solve under the ω-slice's factorization.
	sc.loadCurrents(z, p.Currents)
	m.assembleInto(sc, p.Omega, sc.cur, true, nil)
	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n}

	// Adjoint of the power objective: ∂𝒫/∂T is the Taylor leakage slope
	// at the chip nodes plus ±α·I at the Peltier interface nodes.
	rhsP := sc.warm
	sparse.Fill(rhsP, 0)
	for i := 0; i < nc; i++ {
		rhsP[m.node(planeChip, i)] = m.leakA[i]
	}
	for i, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		iz := sc.cur[i]
		rhsP[m.node(planeTECHot, i)] += alpha * iz
		rhsP[m.node(planeTECCold, i)] -= alpha * iz
	}

	// Adjoint of the smoothed max temperature: ∂𝒯_τ/∂T is the softmax
	// weight vector on the chip nodes.
	sparse.Fill(rhsT, 0)
	w := sc.tChip
	softmaxWeights(w, res.ChipTemps, tau)
	for i := 0; i < nc; i++ {
		rhsT[m.node(planeChip, i)] = w[i]
	}
	return g, opts
}

// contractAdjoints completes g at the point (omega, cur) from the power
// and temperature adjoints lam, in that order, and their solve
// statistics st: the explicit partial derivatives plus each adjoint's
// contraction with the design's matrix patches and RHS injections. cur
// is the per-cell TEC current the system was assembled at.
func (m *Model) contractAdjoints(g *Gradient, z *Zoning, omega float64, cur []float64, lam [2][]float64, st [2]sparse.Stats) {
	res := g.Result
	lamP, lamT := lam[0], lam[1]
	g.AdjointStats = sparse.Stats{
		Iterations: st[0].Iterations + st[1].Iterations,
		Residual:   math.Max(st[0].Residual, st[1].Residual),
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
		iz := cur[i]
		cold := m.node(planeTECCold, i)
		mid := m.node(planeTECMid, i)
		hot := m.node(planeTECHot, i)
		tc, th := res.T[cold], res.T[hot]
		joule := 2 * m.tecR[i] * iz
		g.PowerGrad[1+zi] += joule + alpha*(th-tc) +
			lamP[mid]*joule - lamP[cold]*alpha*tc + lamP[hot]*alpha*th
		g.TempGrad[1+zi] += lamT[mid]*joule - lamT[cold]*alpha*tc + lamT[hot]*alpha*th
	}
}
