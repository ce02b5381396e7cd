package thermal

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"oftec/internal/parallel"
	"oftec/internal/sparse"
)

// This file implements a reduced-order model (ROM) of the steady-state
// thermal network: a Galerkin projection of the full n-node system onto a
// low-dimensional basis spanned by full solutions ("snapshots") taken on a
// coarse (ω, I_TEC) grid at construction.
//
// The projection is exact in the parameters because the assembled system
// is affine in them (the same structure assembleInto patches):
//
//	A(ω, I) = A₀ + (g(ω) − g(0))·D_s + I·D_p
//	b(ω, I) = b₀ + (g(ω) − g(0))·b_s + I²·b_j
//
// where A₀, b₀ are the assembled system at (ω=0, I=0) with the Taylor
// leakage folded in, D_s is the diagonal sink-conductance split
// (frac_i at sink nodes), D_p the diagonal Peltier pattern (+α at
// TEC-cold nodes, −α at TEC-hot nodes), b_s the sink ambient injection
// (frac_i·T_amb), and b_j the Joule injection (R_i at the TEC mid plane).
// Projecting each term once at construction reduces every evaluation to a
// dense r×r solve plus an n·r reconstruction, with r ≈ a few dozen.
//
// The ROM never silently returns a degraded answer: every evaluation
// reconstructs the full-space residual r = b − A·T̃ (one sparse
// matrix-vector product — no reassembly, thanks to the affine form) and
// converts it to a temperature-error estimate via the worst
// error-to-residual amplification observed on a held-out validation grid.
// If the estimate exceeds the advertised bound, or the reconstructed field
// looks like thermal runaway, Evaluate reports ok=false and the caller
// falls through to the full model.

// Reduced-model construction constants.
const (
	// romMaxRank caps the basis size.
	romMaxRank = 32
	// romSnapOmegas × romSnapCurrents is the snapshot grid: fan speeds span
	// (0, ΩMax] (low speeds that hit thermal runaway are skipped and set
	// the ROM's ω floor), currents span [0, MaxCurrent].
	romSnapOmegas   = 6
	romSnapCurrents = 4
	// romValOmegas × romValCurrents is the held-out validation grid,
	// offset to the midpoints of the snapshot grid. It calibrates the
	// advertised error bound and the residual→error amplification factor.
	romValOmegas   = 5
	romValCurrents = 3
	// romSafety multiplies the largest validation-grid error to give the
	// advertised bound.
	romSafety = 2.0
	// romMinBound floors the advertised bound, in kelvin. A basis that
	// nails the validation grid to microkelvins would otherwise advertise
	// a bound at solver-noise scale and reject perfectly good evaluations
	// after benign workload rescales; 20 mK keeps the contract physically
	// meaningful while staying well inside the controller's 50 mK
	// constraint margin.
	romMinBound = 0.02
)

// ROMStats counts reduced-model traffic. Rejections are evaluations that
// fell through to the full model; the four Declined counters split them
// by cause, and Rejections is their sum.
type ROMStats struct {
	Evaluations int64
	Rejections  int64
	// DeclinedFloor: ω below the snapshot floor.
	DeclinedFloor int64
	// DeclinedDegenerate: a singular reduced system or an unphysical
	// reconstruction.
	DeclinedDegenerate int64
	// DeclinedResidual: the residual error estimate exceeded the bound.
	DeclinedResidual int64
	// DeclinedRunaway: the reconstruction's peak chip temperature sits
	// near the runaway wall.
	DeclinedRunaway int64
	DynRefreshes    int64
}

// ReducedModel is the constructed ROM. It is safe for concurrent Evaluate
// calls, like the Model it projects.
type ReducedModel struct {
	m    *Model
	rank int

	basis [][]float64 // rank orthonormal n-vectors

	// Affine pieces: full-space base operator (for the residual check) and
	// the projected operators/RHS parts.
	a0mat *sparse.CSR // A₀ with its own value copy
	g0    float64     // g(0): sink conductance already folded into A₀/b₀

	ar0 [][]float64 // VᵀA₀V
	ds  [][]float64 // VᵀD_sV
	dp  [][]float64 // VᵀD_pV
	bs  []float64   // Vᵀb_s
	bj  []float64   // Vᵀb_j

	omegaFloor float64 // smallest snapshot ω that did not run away
	bound      float64 // advertised max |T̃ − T| over chip cells, K
	kappa      float64 // worst validation |ΔT|∞ / ‖residual‖∞ amplification
	runawayT   float64

	// Dynamic power enters b₀ only; the projected base RHS is refreshed
	// lazily when the model's dynamic-power generation moves, so the ROM
	// keeps serving online-control loops that call SetDynamicPower between
	// planning steps without rebuilding the basis. The residual guard
	// catches workloads whose spatial shape drifts outside the snapshot
	// manifold.
	dynMu  sync.Mutex
	dynGen uint64
	b0     []float64 // full-space base RHS at (0, 0)
	br0    []float64 // Vᵀb₀

	evals     atomic.Int64
	refreshes atomic.Int64

	// Declined evaluations, one counter per cause (see ROMStats).
	declFloor, declDegenerate, declResidual, declRunaway atomic.Int64

	scratch sync.Pool // *romScratch
}

// romScratch is one pooled per-evaluation workspace.
type romScratch struct {
	ar   [][]float64 // rank×rank reduced operator
	flat []float64   // backing for ar
	br   []float64   // reduced RHS
	work []float64   // full-space A₀·T̃ / residual workspace
}

// NewReducedModel builds a ROM over the model's operating box
// [0, ΩMax] × [0, MaxCurrent]. It fails if the snapshot grid yields no
// usable basis (for example, every snapshot in thermal runaway).
//
// Its full solves run in two fan-outs of independent tasks through
// parallel.ForEach at the hardware's width: the snapshot grid's ω-groups,
// then, once they have set the ω floor, the dynamic-power sensitivities
// and the validation grid's ω-groups. Each ω-group is one EvaluateBatch,
// and every task writes its results by position, so the basis is
// orthonormalized from the same snapshots in the same order, and the ROM
// is bit-identical, at any GOMAXPROCS.
func NewReducedModel(m *Model) (*ReducedModel, error) {
	cfg := m.Config()
	omegaMax := m.act.UMax()
	iMax := cfg.TEC.MaxCurrent
	if omegaMax <= 0 {
		return nil, fmt.Errorf("thermal: ROM needs a positive fan speed range, got ΩMax=%g", omegaMax)
	}
	r, err := newROMBase(m)
	if err != nil {
		return nil, err
	}

	// Snapshot sweep: one EvaluateBatch per ω-group. Low fan speeds sit
	// in the runaway wall (Figure 6's dark-red region); runaway snapshots
	// carry no field and are skipped, and the smallest surviving ω
	// becomes the ROM's floor.
	snapGroups := romSnapshotGrid(omegaMax, iMax)
	snapRes := make([][]*Result, len(snapGroups))
	err = parallel.ForEach(context.Background(), len(snapGroups), 0, func(k int) error {
		var err error
		snapRes[k], err = m.EvaluateBatch(context.Background(), nil, snapGroups[k], nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("thermal: ROM snapshot sweep: %w", err)
	}
	snaps, floor := romSnapshots(snapGroups, snapRes)
	if len(snaps) == 0 {
		return nil, fmt.Errorf("thermal: ROM snapshot grid is entirely in thermal runaway")
	}

	// The floor fixes both the sensitivity speeds and the validation
	// grid; their solves are independent of each other.
	dynOmegas := romDynOmegas(floor, omegaMax)
	valGroups := romValidationGrid(floor, omegaMax, iMax)
	dyn := make([][]float64, len(dynOmegas))
	valRes := make([][]*Result, len(valGroups))
	err = parallel.ForEach(context.Background(), len(dyn)+len(valGroups), 0, func(k int) error {
		if k < len(dyn) {
			// A sensitivity that does not solve leaves its slot nil and
			// adds no snapshot.
			if x, err := r.dynSensitivity(dynOmegas[k]); err == nil {
				dyn[k] = x
			}
			return nil
		}
		var err error
		valRes[k-len(dyn)], err = m.EvaluateBatch(context.Background(), nil, valGroups[k-len(dyn)], nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("thermal: ROM validation sweep: %w", err)
	}
	for _, x := range dyn {
		if x != nil {
			snaps = append(snaps, x)
		}
	}
	if err := r.fit(floor, snaps, valGroups, valRes); err != nil {
		return nil, err
	}
	return r, nil
}

// newROMBase starts a ROM on m with its affine base captured: the system
// assembled once at (ω=0, I=0) with the linear leakage folded in, its
// matrix values and RHS copied out of the pooled scratch.
func newROMBase(m *Model) (*ReducedModel, error) {
	r := &ReducedModel{m: m, runawayT: m.cfg.runawayTemp(), g0: m.act.Conductance(0)}
	sc := m.getScratch()
	m.assembleSlice(sc, 0)
	a0vals := make([]float64, len(sc.vals))
	copy(a0vals, sc.vals)
	r.b0 = make([]float64, m.n)
	copy(r.b0, sc.rhs)
	m.putScratch(sc)
	a0mat, err := m.basePat.WithValues(a0vals)
	if err != nil {
		return nil, err
	}
	r.a0mat = a0mat
	r.dynGen = m.dynGen.Load()
	return r, nil
}

// romSnapshotGrid is the snapshot grid, one group of points per fan
// speed: ω spans (0, ΩMax] and the current [0, MaxCurrent].
func romSnapshotGrid(omegaMax, iMax float64) [][]Point {
	groups := make([][]Point, romSnapOmegas)
	for io := range groups {
		omega := omegaMax * float64(io+1) / romSnapOmegas
		for ic := 0; ic < romSnapCurrents; ic++ {
			itec := iMax * float64(ic) / (romSnapCurrents - 1)
			groups[io] = append(groups[io], Point{Omega: omega, Currents: []float64{itec}})
		}
	}
	return groups
}

// romSnapshots collects the fields of the snapshot grid's solved points
// that did not run away, in grid order, and the smallest ω among them
// (+Inf when none survived).
func romSnapshots(groups [][]Point, res [][]*Result) (snaps [][]float64, floor float64) {
	floor = math.Inf(1)
	for g, group := range groups {
		for k, p := range group {
			if res[g][k].Runaway {
				continue
			}
			snaps = append(snaps, res[g][k].T)
			floor = math.Min(floor, p.Omega)
		}
	}
	return snaps, floor
}

// romDynOmegas are the fan speeds of the dynamic-power sensitivity
// snapshots: the steady state is affine in the dynamic-power level (a
// workload rescaled by s solves to A⁻¹b_rest + s·A⁻¹b_dyn), so spanning
// A⁻¹b_dyn at a few fan speeds lets the lazy RHS refresh track
// SetDynamicPower rescales — the online-control pattern — without
// rebuilding the basis.
func romDynOmegas(floor, omegaMax float64) []float64 {
	return []float64{floor, (floor + omegaMax) / 2, omegaMax}
}

// romValidationGrid is the held-out validation grid above the ω floor,
// one group of points per fan speed, offset to the midpoints of the
// snapshot grid.
func romValidationGrid(floor, omegaMax, iMax float64) [][]Point {
	groups := make([][]Point, romValOmegas)
	for io := range groups {
		omega := floor + (omegaMax-floor)*(float64(io)+0.5)/romValOmegas
		for ic := 0; ic < romValCurrents; ic++ {
			itec := iMax * (float64(ic) + 0.5) / romValCurrents
			groups[io] = append(groups[io], Point{Omega: omega, Currents: []float64{itec}})
		}
	}
	return groups
}

// fit finishes a ROM whose base newROMBase captured from its solved
// grids: the basis from snaps (the surviving snapshot fields, then the
// dynamic-power sensitivities), the projected operators, and the bound
// and amplification calibrated against the validation grid's full
// solutions valRes.
func (r *ReducedModel) fit(floor float64, snaps [][]float64, valGroups [][]Point, valRes [][]*Result) error {
	r.omegaFloor = floor
	r.basis = orthonormalBasis(snaps, romMaxRank)
	r.rank = len(r.basis)
	if r.rank == 0 {
		return fmt.Errorf("thermal: ROM basis collapsed (degenerate snapshots)")
	}
	r.project()
	rank, n := r.rank, r.m.n
	r.scratch.New = func() any {
		s := &romScratch{
			flat: make([]float64, rank*rank),
			br:   make([]float64, rank),
			work: make([]float64, n),
		}
		s.ar = make([][]float64, rank)
		for i := range s.ar {
			s.ar[i] = s.flat[i*rank : (i+1)*rank]
		}
		return s
	}
	return r.calibrate(valGroups, valRes)
}

// dynSensitivity solves A(ω, 0)·x = b_dyn, the derivative of the steady
// state with respect to a uniform dynamic-power scale factor. A(ω, 0) is
// the ω-slice's canonical matrix, so the slice's factorization is its
// exact IC(0).
func (r *ReducedModel) dynSensitivity(omega float64) ([]float64, error) {
	m := r.m
	sc := m.getScratch()
	defer m.putScratch(sc)
	m.assembleSlice(sc, omega)
	rhs := make([]float64, m.n)
	for i, p := range m.dyn {
		rhs[m.node(planeChip, i)] = p
	}
	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, Work: &sc.ws}
	x, _, err := sparse.CGPrecond(sc.mat, rhs, m.factorSlice(sc), opts)
	return x, err
}

// orthonormalBasis runs modified Gram-Schmidt (with one re-orthogonalization
// pass) over the snapshots, dropping near-dependent directions.
func orthonormalBasis(snaps [][]float64, maxRank int) [][]float64 {
	const dropTol = 1e-8
	var basis [][]float64
	for _, s := range snaps {
		if len(basis) >= maxRank {
			break
		}
		v := make([]float64, len(s))
		copy(v, s)
		orig := sparse.Norm2(v)
		if orig == 0 {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				sparse.AXPY(-sparse.Dot(b, v), b, v)
			}
		}
		if nrm := sparse.Norm2(v); nrm > dropTol*orig {
			inv := 1 / nrm
			for i := range v {
				v[i] *= inv
			}
			basis = append(basis, v)
		}
	}
	return basis
}

// project builds the reduced operators from the captured affine pieces.
func (r *ReducedModel) project() {
	m, rank := r.m, r.rank
	r.ar0 = make([][]float64, rank)
	r.ds = make([][]float64, rank)
	r.dp = make([][]float64, rank)
	r.bs = make([]float64, rank)
	r.bj = make([]float64, rank)
	r.br0 = make([]float64, rank)

	av := make([]float64, m.n)
	for j := 0; j < rank; j++ {
		r.a0mat.MulVec(av, r.basis[j])
		for i := 0; i < rank; i++ {
			if r.ar0[i] == nil {
				r.ar0[i] = make([]float64, rank)
				r.ds[i] = make([]float64, rank)
				r.dp[i] = make([]float64, rank)
			}
			r.ar0[i][j] = sparse.Dot(r.basis[i], av)
		}
	}
	for c, frac := range m.sinkFrac {
		node := m.node(planeSink, c)
		for i := 0; i < rank; i++ {
			vi := r.basis[i][node]
			r.bs[i] += frac * m.cfg.Ambient * vi
			for j := 0; j < rank; j++ {
				r.ds[i][j] += frac * vi * r.basis[j][node]
			}
		}
	}
	for c, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		cold := m.node(planeTECCold, c)
		hot := m.node(planeTECHot, c)
		mid := m.node(planeTECMid, c)
		for i := 0; i < rank; i++ {
			r.bj[i] += m.tecR[c] * r.basis[i][mid]
			for j := 0; j < rank; j++ {
				r.dp[i][j] += alpha * (r.basis[i][cold]*r.basis[j][cold] - r.basis[i][hot]*r.basis[j][hot])
			}
		}
	}
	for i := 0; i < rank; i++ {
		r.br0[i] = sparse.Dot(r.basis[i], r.b0)
	}
}

// calibrate measures the ROM against the validation grid's full
// solutions, setting the advertised bound and the residual→error
// amplification.
func (r *ReducedModel) calibrate(groups [][]Point, fulls [][]*Result) error {
	var maxErr, maxKappa float64
	valid := 0
	nc := r.m.grids[planeChip].NumCells()
	for g, group := range groups {
		for k, p := range group {
			full := fulls[g][k]
			if full.Runaway {
				continue
			}
			t, resNorm, ok := r.reducedSolve(p.Omega, p.Currents[0])
			if !ok {
				continue
			}
			var errInf float64
			for i := 0; i < nc; i++ {
				node := r.m.node(planeChip, i)
				if d := math.Abs(t[node] - full.T[node]); d > errInf {
					errInf = d
				}
			}
			valid++
			if errInf > maxErr {
				maxErr = errInf
			}
			if resNorm > 1e-12 {
				if k := errInf / resNorm; k > maxKappa {
					maxKappa = k
				}
			}
		}
	}
	if valid == 0 {
		return fmt.Errorf("thermal: ROM validation grid has no usable points")
	}
	r.bound = math.Max(romSafety*maxErr, romMinBound)
	r.kappa = maxKappa
	return nil
}

// Rank returns the basis size.
func (r *ReducedModel) Rank() int { return r.rank }

// ErrorBound returns the advertised worst-case chip-temperature error in
// kelvin: evaluations whose estimated error exceeds it are rejected
// (Evaluate returns ok=false) instead of returned degraded.
func (r *ReducedModel) ErrorBound() float64 { return r.bound }

// OmegaFloor returns the smallest fan speed the snapshot grid covered;
// below it the ROM always rejects (the region is runaway-dominated).
func (r *ReducedModel) OmegaFloor() float64 { return r.omegaFloor }

// Stats returns a snapshot of the traffic counters.
func (r *ReducedModel) Stats() ROMStats {
	st := ROMStats{
		Evaluations:        r.evals.Load(),
		DeclinedFloor:      r.declFloor.Load(),
		DeclinedDegenerate: r.declDegenerate.Load(),
		DeclinedResidual:   r.declResidual.Load(),
		DeclinedRunaway:    r.declRunaway.Load(),
		DynRefreshes:       r.refreshes.Load(),
	}
	st.Rejections = st.DeclinedFloor + st.DeclinedDegenerate + st.DeclinedResidual + st.DeclinedRunaway
	return st
}

// ensureDyn refreshes the dynamic-power-dependent RHS pieces if
// SetDynamicPower has been called since they were last projected.
func (r *ReducedModel) ensureDyn() {
	gen := r.m.dynGen.Load()
	r.dynMu.Lock()
	defer r.dynMu.Unlock()
	if gen == r.dynGen {
		return
	}
	sc := r.m.getScratch()
	r.m.assembleSlice(sc, 0)
	copy(r.b0, sc.rhs)
	r.m.putScratch(sc)
	for i := 0; i < r.rank; i++ {
		r.br0[i] = sparse.Dot(r.basis[i], r.b0)
	}
	r.dynGen = gen
	r.refreshes.Add(1)
}

// reducedSolve performs the r×r solve and full-space reconstruction,
// returning the reconstructed field and the infinity norm of the
// full-space residual b − A·T̃. ok=false means the reduced system itself
// failed (singular projection — should not happen for a physical model).
func (r *ReducedModel) reducedSolve(omega, itec float64) (t []float64, resNorm float64, ok bool) {
	r.ensureDyn()
	gd := r.m.act.Conductance(omega) - r.g0
	i2 := itec * itec

	sc := r.scratch.Get().(*romScratch)
	defer r.scratch.Put(sc)
	for i := 0; i < r.rank; i++ {
		row := sc.ar[i]
		a0, dsr, dpr := r.ar0[i], r.ds[i], r.dp[i]
		for j := 0; j < r.rank; j++ {
			row[j] = a0[j] + gd*dsr[j] + itec*dpr[j]
		}
		sc.br[i] = r.br0[i] + gd*r.bs[i] + i2*r.bj[i]
	}
	lu, err := sparse.NewLU(sc.ar)
	if err != nil {
		return nil, 0, false
	}
	y, err := lu.Solve(sc.br)
	if err != nil {
		return nil, 0, false
	}

	// T̃ = V·y, freshly allocated: the field outlives the scratch inside
	// the returned Result.
	t = make([]float64, r.m.n)
	for k := 0; k < r.rank; k++ {
		sparse.AXPY(y[k], r.basis[k], t)
	}

	// Full-space residual via the affine pieces — no reassembly:
	// work = b(ω,I) − A(ω,I)·T̃.
	r.dynMu.Lock() // b0 may be swapped by a concurrent ensureDyn
	r.a0mat.MulVec(sc.work, t)
	for i := range sc.work {
		sc.work[i] = r.b0[i] - sc.work[i]
	}
	r.dynMu.Unlock()
	m := r.m
	for c, frac := range m.sinkFrac {
		node := m.node(planeSink, c)
		sc.work[node] += gd*frac*m.cfg.Ambient - gd*frac*t[node]
	}
	if itec != 0 {
		for c, alpha := range m.tecAlpha {
			if alpha == 0 {
				continue
			}
			sc.work[m.node(planeTECCold, c)] -= alpha * itec * t[m.node(planeTECCold, c)]
			sc.work[m.node(planeTECHot, c)] += alpha * itec * t[m.node(planeTECHot, c)]
			sc.work[m.node(planeTECMid, c)] += m.tecR[c] * i2
		}
	}
	return t, sparse.NormInf(sc.work), true
}

// Evaluate computes the reduced steady state at (ω, I_TEC). ok=false means
// the ROM declines the point — estimated error over the advertised bound,
// fan speed below the snapshot floor, a runaway-looking reconstruction, or
// a degenerate reduced system — and the caller must fall through to the
// full model. An error is returned only for invalid operating points.
func (r *ReducedModel) Evaluate(omega, itec float64) (*Result, bool, error) {
	if err := r.m.checkOperatingPoint(omega, itec); err != nil {
		return nil, false, err
	}
	r.evals.Add(1)
	if omega < r.omegaFloor-1e-12 {
		r.declFloor.Add(1)
		return nil, false, nil
	}
	t, resNorm, ok := r.reducedSolve(omega, itec)
	if !ok || !r.m.physical(t) {
		r.declDegenerate.Add(1)
		return nil, false, nil
	}
	if r.kappa > 0 && r.kappa*resNorm > r.bound {
		r.declResidual.Add(1)
		return nil, false, nil
	}
	sc := r.m.getScratch()
	sparse.Fill(sc.cur, itec)
	res := r.m.buildResult(omega, itec, sc.cur, t, sparse.Stats{}, true)
	r.m.putScratch(sc)
	if res.MaxChipTemp > r.runawayT {
		// Near or inside the runaway wall the linearized fixed point is
		// meaningless; let the full model classify the point.
		r.declRunaway.Add(1)
		return nil, false, nil
	}
	return res, true, nil
}
