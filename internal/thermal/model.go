package thermal

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"oftec/internal/coolant"
	"oftec/internal/floorplan"
	"oftec/internal/grid"
	"oftec/internal/leakage"
	"oftec/internal/power"
	"oftec/internal/sparse"
)

// ErrThermalRunaway is reported (wrapped) when the steady-state iteration
// with the exact exponential leakage model diverges, i.e. the positive
// electrothermal feedback loop has gain at or above one.
var ErrThermalRunaway = errors.New("thermal: thermal runaway")

// plane indices in the node stack, bottom to top.
const (
	planePCB = iota
	planeChip
	planeTIM1
	planeTECCold
	planeTECMid
	planeTECHot
	planeSpreader
	planeTIM2
	planeSink
	numPlanes
)

var planeNames = [numPlanes]string{
	"pcb", "chip", "tim1", "tec_abs", "tec_gen", "tec_rej", "spreader", "tim2", "sink",
}

type triplet struct {
	i, j int
	v    float64
}

// Model is the assembled thermal network of one cooling package. It is
// safe for concurrent Evaluate calls once built, as long as SetDynamicPower
// is not called concurrently.
type Model struct {
	cfg Config

	// act is the cooling actuator resolved from cfg once at build time:
	// the model consumes g(u) and the drive power only through this seam.
	act coolant.Actuator

	grids [numPlanes]*grid.Grid
	off   [numPlanes]int
	n     int

	// base holds the conduction couplings and the constant ambient path
	// (PCB); variable parts (sink conductance, Peltier, leakage) are added
	// per evaluation.
	base    []triplet
	baseRHS []float64

	// sinkFrac[i] is the fraction of g_HS&fan(ω) assigned to sink cell i.
	sinkFrac []float64

	// Per chip-grid-cell data.
	dynMap   power.Map // last SetDynamicPower input (for WithCoolant rebuilds)
	dyn      []float64 // dynamic power, W
	leakA    []float64 // Taylor slope a, W/K
	leakB    []float64 // Taylor value b at Tref, W
	leakP0   []float64 // exponential P0 at T0, W
	leakBeta float64
	leakT0   float64
	leakTref float64

	// TEC module parameters per chip-grid cell (the TEC planes share the
	// chip grid resolution). Zero alpha marks an uncovered (filler) cell.
	tecAlpha []float64 // module Seebeck α, V/K
	tecR     []float64 // module electrical resistance, Ω
	numTEC   int

	// one is the paper's deployment as a zoning: every module in one
	// series string. A nil *Zoning argument means this one.
	one *Zoning

	// Symbolic-assembly state, built once in NewModel: the sparsity
	// pattern of every per-evaluation system is identical (the variable
	// contributions — sink conductance, Taylor-leakage slope, Peltier
	// terms — are all diagonal, and the pattern stores a structural
	// diagonal in every row), so per-evaluation assembly is an O(nnz)
	// value copy plus O(n) diagonal/RHS patches into pooled scratch.
	basePat  *sparse.CSR // merged base couplings, structural diagonal everywhere
	baseVals []float64   // basePat's value array (patch copy source)
	diagIdx  []int32     // per-row index of the diagonal slot in the value array

	// factors caches IC(0) factorizations across evaluations, keyed on a
	// per-operating-point value-version (see versionFor): the matrix is a
	// pure function of (ω, current pattern, leakage linearization, Δt),
	// so a repeated operating point reuses its factorization.
	factors *sparse.FactorCache
	verMu   sync.Mutex
	vers    map[verKey]uint64
	nextVer uint64

	// resMem memoizes the Result per solution version — the second-level
	// cache below core's bounded evaluation cache. A repeated operating
	// point (the dominant pattern in line searches and repeated sweeps)
	// returns the identical first-computed Result, so re-solves after an
	// upstream cache eviction stay bit-reproducible. Linearized and exact
	// solutions key separately: they share the matrix version (and hence
	// the factorization) but not the fixed point. SetDynamicPower flushes
	// the memo.
	resMu  sync.Mutex
	resMem map[uint64]*Result

	// scratch pools per-evaluation workspaces (matrix values, RHS, warm
	// vector, CG work arrays) so concurrent Evaluate stays race-free
	// without per-call allocation.
	scratch sync.Pool

	// dynGen counts SetDynamicPower calls. Derived evaluators that bake
	// the dynamic power into precomputed state (the reduced-order model's
	// projected RHS) compare generations to refresh lazily instead of
	// registering callbacks.
	dynGen atomic.Uint64
}

// verKey identifies the system-matrix content of one evaluation: the
// matrix depends only on the fan speed (sink conductance), the uniform
// TEC current (Peltier diagonals), whether the Taylor leakage is folded
// in, and the backward-Euler 1/Δt shift (0 for steady state). Dynamic
// power and exact-leakage injections enter the RHS only. Zoned (non-
// uniform) current patterns bypass versioning and are never cached.
type verKey struct {
	omega, itec, dt float64
	linear          bool
}

// evalScratch is one pooled per-evaluation workspace.
type evalScratch struct {
	mat  *sparse.CSR // shares basePat's pattern; values aliases vals
	vals []float64
	rhs  []float64
	warm []float64
	ws   sparse.Workspace

	// EvaluateExact fixed-point scratch (chip-cell sized).
	chipRHS []float64 // leak-free RHS at the chip nodes
	tChip   []float64

	// cur is the per-cell TEC current of the evaluation in flight (see
	// loadCurrents); cell is a closure over it built once when the scratch
	// is created. Handing sc.cell to assembleInto instead of a per-call
	// closure keeps the hot evaluate path free of the closure allocation
	// (the scratch, and with it the closure, is pooled).
	cur  []float64
	cell func(int) float64
}

// loadCurrents writes the per-cell TEC current of an operating point
// under zoning z into the scratch: cell i carries currents[z.zoneOf[i]].
func (sc *evalScratch) loadCurrents(z *Zoning, currents []float64) {
	for i, zone := range z.zoneOf {
		sc.cur[i] = currents[zone]
	}
}

// NewModel assembles the network for the given configuration and dynamic
// power map.
func NewModel(cfg Config, dyn power.Map) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg}
	act, err := cfg.Actuator()
	if err != nil {
		return nil, err
	}
	m.act = act
	if err := m.buildGrids(); err != nil {
		return nil, err
	}
	m.indexNodes()
	if err := m.buildTEC(); err != nil {
		return nil, err
	}
	m.one = &Zoning{numZones: 1, zoneOf: make([]int, m.grids[planeChip].NumCells())}
	if err := m.buildConduction(); err != nil {
		return nil, err
	}
	if err := m.buildLeakage(); err != nil {
		return nil, err
	}
	if err := m.SetDynamicPower(dyn); err != nil {
		return nil, err
	}
	if err := m.buildSymbolic(); err != nil {
		return nil, err
	}
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Actuator returns the cooling actuator the model was built with.
func (m *Model) Actuator() coolant.Actuator { return m.act }

// UMax returns the actuator command upper bound (ω_max for air, the pump
// ceiling for a liquid loop).
func (m *Model) UMax() float64 { return m.act.UMax() }

// WithCoolant rebuilds the model with the same floorplan, calibration, and
// dynamic power map but a different coolant spec — the hook the backend
// registry's liquid and package variants use to re-actuate an assembled
// model. A nil spec selects the air path.
func (m *Model) WithCoolant(spec *coolant.Spec) (*Model, error) {
	cfg := m.cfg
	cfg.Coolant = spec
	return NewModel(cfg, m.dynMap)
}

// NumNodes returns the total number of temperature nodes.
func (m *Model) NumNodes() int { return m.n }

// NumTEC returns the number of deployed TEC modules (covered cells).
func (m *Model) NumTEC() int { return m.numTEC }

// ChipGrid returns the chip-layer grid (useful for mapping results).
func (m *Model) ChipGrid() *grid.Grid { return m.grids[planeChip] }

func centered(center floorplan.Rect, edge float64) floorplan.Rect {
	cx, cy := center.Center()
	return floorplan.Rect{X: cx - edge/2, Y: cy - edge/2, W: edge, H: edge}
}

func (m *Model) buildGrids() error {
	cfg := &m.cfg
	die := floorplan.Rect{X: 0, Y: 0, W: cfg.Floorplan.Width, H: cfg.Floorplan.Height}

	mk := func(plane int, outline floorplan.Rect, spec LayerSpec, res int) error {
		g, err := grid.New(planeNames[plane], outline, spec.Thickness, res, res, spec.Material)
		if err != nil {
			return err
		}
		m.grids[plane] = g
		return nil
	}

	if err := mk(planePCB, centered(die, cfg.PCB.Edge), cfg.PCB, cfg.PCBRes); err != nil {
		return err
	}
	if err := mk(planeChip, die, cfg.Chip, cfg.ChipRes); err != nil {
		return err
	}
	if err := mk(planeTIM1, die, cfg.TIM1, cfg.ChipRes); err != nil {
		return err
	}
	// The three TEC circuit planes share the chip grid footprint. The
	// cold/rej planes are interface planes (no lateral conduction of their
	// own); the gen plane carries the layer's lateral conduction.
	tecSpec := LayerSpec{Edge: cfg.Chip.Edge, Thickness: cfg.TEC.Thickness,
		Material: cfg.TIM1.Material}
	tecSpec.Material.Conductivity = cfg.TEC.LateralConductivity
	for _, p := range []int{planeTECCold, planeTECMid, planeTECHot} {
		if err := mk(p, die, tecSpec, cfg.ChipRes); err != nil {
			return err
		}
	}
	if err := mk(planeSpreader, centered(die, cfg.Spreader.Edge), cfg.Spreader, cfg.SpreaderRes); err != nil {
		return err
	}
	if err := mk(planeTIM2, centered(die, cfg.TIM2.Edge), cfg.TIM2, cfg.SpreaderRes); err != nil {
		return err
	}
	if err := mk(planeSink, centered(die, cfg.Sink.Edge), cfg.Sink, cfg.SinkRes); err != nil {
		return err
	}
	return nil
}

func (m *Model) indexNodes() {
	n := 0
	for p := 0; p < numPlanes; p++ {
		m.off[p] = n
		n += m.grids[p].NumCells()
	}
	m.n = n
}

// node maps (plane, cell) to a global node index.
func (m *Model) node(plane, cell int) int { return m.off[plane] + cell }

// buildTEC decides module coverage per chip-grid cell and instantiates the
// per-cell module parameters from the areal spec.
func (m *Model) buildTEC() error {
	cfg := &m.cfg
	chip := m.grids[planeChip]
	nc := chip.NumCells()
	m.tecAlpha = make([]float64, nc)
	m.tecR = make([]float64, nc)

	// A cell is uncovered when more than half of it lies under an
	// uncovered unit (the caches).
	uncoveredFrac := make([]float64, nc)
	for _, name := range cfg.TEC.Uncovered {
		u, _ := cfg.Floorplan.Unit(name)
		for _, idx := range chip.CellsIntersecting(u.Rect) {
			uncoveredFrac[idx] += chip.OverlapFraction(idx, u.Rect)
		}
	}
	area := chip.CellArea()
	for i := 0; i < nc; i++ {
		if uncoveredFrac[i] > 0.5 {
			continue
		}
		m.tecAlpha[i] = cfg.TEC.SeebeckPerArea * area
		m.tecR[i] = cfg.TEC.ResistancePerArea * area
		m.numTEC++
	}
	if m.numTEC == 0 {
		return fmt.Errorf("thermal: TEC deployment covers no cells")
	}

	// The gen plane's lateral conductivity: module material on covered
	// cells, filler elsewhere.
	mid := m.grids[planeTECMid]
	for i := 0; i < nc; i++ {
		k := cfg.TEC.LateralConductivity
		if m.tecAlpha[i] == 0 {
			k = cfg.TEC.FillerConductivity
		}
		if err := mid.SetCellConductivity(i, k); err != nil {
			return err
		}
	}
	return nil
}

// buildConduction assembles the constant conduction couplings and the PCB
// ambient path into the base triplet list and base RHS.
func (m *Model) buildConduction() error {
	cfg := &m.cfg
	m.baseRHS = make([]float64, m.n)

	addCoupling := func(i, j int, g float64) {
		m.base = append(m.base,
			triplet{i, i, g}, triplet{j, j, g},
			triplet{i, j, -g}, triplet{j, i, -g})
	}

	// Lateral conduction within the conducting planes. The cold and rej
	// planes are interface planes without lateral paths of their own.
	for _, p := range []int{planePCB, planeChip, planeTIM1, planeTECMid, planeSpreader, planeTIM2, planeSink} {
		for _, lc := range m.grids[p].LateralCouplings() {
			addCoupling(m.node(p, lc.A), m.node(p, lc.B), lc.G)
		}
	}

	// Vertical conduction between stacked conduction layers.
	for _, pair := range [][2]int{
		{planePCB, planeChip},
		{planeChip, planeTIM1},
		{planeSpreader, planeTIM2},
		{planeTIM2, planeSink},
	} {
		for _, vc := range grid.CoupleVertical(m.grids[pair[0]], m.grids[pair[1]]) {
			addCoupling(m.node(pair[0], vc.Lower), m.node(pair[1], vc.Upper), vc.G)
		}
	}

	// TIM1 top face to the TEC absorption plane: only TIM1's half
	// thickness stands between its center node and the interface plane.
	tim1 := m.grids[planeTIM1]
	for i := 0; i < tim1.NumCells(); i++ {
		addCoupling(m.node(planeTIM1, i), m.node(planeTECCold, i), tim1.VerticalHalfConductance(i))
	}

	// Inside the TEC layer (Figure 4): covered cells couple abs–gen and
	// gen–rej with conductance 2·K_TEC; filler cells conduct through the
	// filler material's half thickness.
	chip := m.grids[planeChip]
	area := chip.CellArea()
	for i := 0; i < chip.NumCells(); i++ {
		var g float64
		if m.tecAlpha[i] != 0 {
			g = 2 * cfg.TEC.ConductancePerArea * area
		} else {
			g = cfg.TEC.FillerConductivity * area / (cfg.TEC.Thickness / 2)
		}
		addCoupling(m.node(planeTECCold, i), m.node(planeTECMid, i), g)
		addCoupling(m.node(planeTECMid, i), m.node(planeTECHot, i), g)
	}

	// TEC rejection plane to the spreader: the spreader's half thickness,
	// overlap-weighted because the footprints differ.
	hot := m.grids[planeTECHot]
	spr := m.grids[planeSpreader]
	for r := 0; r < hot.Rows; r++ {
		for c := 0; c < hot.Cols; c++ {
			hi := hot.Index(r, c)
			rect := hot.CellRect(r, c)
			for _, si := range spr.CellsIntersecting(rect) {
				sr, sc := spr.RowCol(si)
				ov := spr.CellRect(sr, sc).Overlap(rect)
				if ov <= 0 {
					continue
				}
				g := spr.ConductivityAt(si) * ov / (spr.Thickness / 2)
				addCoupling(m.node(planeTECHot, hi), m.node(planeSpreader, si), g)
			}
		}
	}

	// PCB secondary path to ambient: constant, so it lives in the base.
	pcb := m.grids[planePCB]
	if cfg.PCBToAmbient > 0 {
		per := cfg.PCBToAmbient / float64(pcb.NumCells())
		for i := 0; i < pcb.NumCells(); i++ {
			n := m.node(planePCB, i)
			m.base = append(m.base, triplet{n, n, per})
			m.baseRHS[n] += per * cfg.Ambient
		}
	}

	// Sink-to-ambient area fractions; the conductance itself depends on ω.
	sink := m.grids[planeSink]
	m.sinkFrac = make([]float64, sink.NumCells())
	for i := range m.sinkFrac {
		m.sinkFrac[i] = 1 / float64(sink.NumCells())
	}
	return nil
}

// buildLeakage samples the exponential law and regresses the per-cell
// Taylor coefficients, reproducing the paper's McPAT procedure.
func (m *Model) buildLeakage() error {
	cfg := &m.cfg
	chip := m.grids[planeChip]
	nc := chip.NumCells()
	area := chip.CellArea()

	m.leakBeta = cfg.Leakage.Beta
	m.leakT0 = cfg.Leakage.T0
	m.leakTref = cfg.Leakage.Tref
	m.leakP0 = make([]float64, nc)
	m.leakA = make([]float64, nc)
	m.leakB = make([]float64, nc)

	// All cells share the same areal law; regress once at unit power and
	// scale by cell P0.
	unit := leakage.Exponential{P0: 1, Beta: cfg.Leakage.Beta, T0: cfg.Leakage.T0}
	samples, err := unit.SampleRange(cfg.Leakage.SampleLo, cfg.Leakage.SampleHi, cfg.Leakage.NumSamples)
	if err != nil {
		return err
	}
	taylor, err := leakage.Regress(samples, cfg.Leakage.Tref)
	if err != nil {
		return err
	}

	// Per-cell density factor from the per-unit multipliers: the factor is
	// the overlap-weighted average of the unit multipliers over the cell
	// (units without an entry contribute 1).
	factors := make([]float64, nc)
	for i := range factors {
		factors[i] = 1
	}
	for name, mult := range cfg.Leakage.UnitMultipliers {
		u, _ := cfg.Floorplan.Unit(name)
		for _, idx := range chip.CellsIntersecting(u.Rect) {
			factors[idx] += (mult - 1) * chip.OverlapFraction(idx, u.Rect)
		}
	}

	for i := 0; i < nc; i++ {
		p0 := cfg.Leakage.P0Density * area * factors[i]
		m.leakP0[i] = p0
		m.leakA[i] = taylor.A * p0
		m.leakB[i] = taylor.B * p0
	}
	return nil
}

// SetDynamicPower replaces the per-unit dynamic power input and flushes
// the solution memo (dynamic power enters the RHS, so memoized results are
// stale; the factorization cache is unaffected — the matrix never depends
// on the power input).
func (m *Model) SetDynamicPower(dyn power.Map) error {
	cells, err := dyn.ToCells(m.cfg.Floorplan, m.grids[planeChip])
	if err != nil {
		return err
	}
	m.dynMap = dyn
	m.dyn = cells
	m.dynGen.Add(1)
	if m.resMem != nil {
		m.resMu.Lock()
		m.resMem = make(map[uint64]*Result)
		m.resMu.Unlock()
	}
	return nil
}

// DynamicPowerTotal returns the summed dynamic power input in watts.
func (m *Model) DynamicPowerTotal() float64 {
	var s float64
	for _, p := range m.dyn {
		s += p
	}
	return s
}

// TotalLeakageSlope returns Σa_i, the whole-chip Taylor leakage slope in
// W/K; together with the package thermal resistance it determines the
// runaway loop gain.
func (m *Model) TotalLeakageSlope() float64 {
	var s float64
	for _, a := range m.leakA {
		s += a
	}
	return s
}

// uniformCurrent returns the per-cell current function for the paper's
// deployment: every module in series carries the same current.
func (m *Model) uniformCurrent(iTEC float64) func(int) float64 {
	return func(int) float64 { return iTEC }
}

// buildSymbolic freezes the shared sparsity pattern and the reuse
// machinery, once per model. Every per-evaluation system shares one
// pattern: the variable contributions (sink conductance, Taylor-leakage
// slope, Peltier terms, backward-Euler C/Δt) are all diagonal, and
// BuildWithDiagonal stores a structural diagonal in every row, so
// assembleInto never needs a sparse.Builder.
func (m *Model) buildSymbolic() error {
	b := sparse.NewBuilder(m.n)
	for _, t := range m.base {
		b.Add(t.i, t.j, t.v)
	}
	pat, err := b.BuildWithDiagonal()
	if err != nil {
		return err
	}
	// The base couplings are symmetric by construction (addCoupling stamps
	// both triangles); verify once, then every patched refresh re-stamps
	// the hint so SolveAuto skips its per-solve symmetry scan.
	if !pat.SymmetricHint(1e-12) {
		return fmt.Errorf("thermal: base conduction matrix is not symmetric")
	}
	pat.MarkSymmetric(true)
	m.basePat = pat
	m.baseVals = make([]float64, pat.NNZ())
	if err := pat.CopyValues(m.baseVals); err != nil {
		return err
	}
	if m.diagIdx, err = pat.DiagIndices(); err != nil {
		return err
	}
	m.factors = sparse.NewFactorCache(0)
	m.vers = make(map[verKey]uint64)
	m.resMem = make(map[uint64]*Result)
	nc := m.grids[planeChip].NumCells()
	m.scratch.New = func() any {
		sc := &evalScratch{
			vals:    make([]float64, pat.NNZ()),
			rhs:     make([]float64, m.n),
			warm:    make([]float64, m.n),
			chipRHS: make([]float64, nc),
			tChip:   make([]float64, nc),
			cur:     make([]float64, nc),
		}
		mat, werr := pat.WithValues(sc.vals)
		if werr != nil {
			// Unreachable: the value slice is sized to the pattern above.
			panic(werr)
		}
		sc.mat = mat
		sc.cell = func(i int) float64 { return sc.cur[i] }
		return sc
	}
	return nil
}

// maxVersions bounds the operating-point → version map. Past the bound it
// clears wholesale; versions stay monotonic, so entries cached under
// cleared keys are never wrongly revived — they age out of the bounded
// factor cache instead.
const maxVersions = 4096

// versionFor returns the stable matrix value-version for an operating
// point, minting a fresh one on first sight.
//
//oftec:hotpath
func (m *Model) versionFor(k verKey) uint64 {
	m.verMu.Lock()
	defer m.verMu.Unlock()
	if v, ok := m.vers[k]; ok {
		return v
	}
	if len(m.vers) >= maxVersions {
		//lint:ignore hotalloc amortized wholesale clear, at most once per maxVersions hits
		m.vers = make(map[verKey]uint64)
	}
	m.nextVer++
	m.vers[k] = m.nextVer
	return m.nextVer
}

func (m *Model) getScratch() *evalScratch   { return m.scratch.Get().(*evalScratch) }
func (m *Model) putScratch(sc *evalScratch) { m.scratch.Put(sc) }

// maxResults bounds the per-version result memo (each entry holds a full
// temperature field, NumNodes×8 bytes, so the bound caps the memory at a
// few megabytes). Past the bound it clears wholesale, like the version map.
const maxResults = 256

// loadResult returns the memoized Result for solution version v. Version 0
// never has a memory. The pointer is shared, exactly as core's evaluation
// cache shares results across callers.
//
//oftec:hotpath
func (m *Model) loadResult(v uint64) (*Result, bool) {
	if v == 0 {
		return nil, false
	}
	m.resMu.Lock()
	defer m.resMu.Unlock()
	res, ok := m.resMem[v]
	return res, ok
}

// storeResult memoizes a computed Result (converged or runaway — both are
// deterministic functions of the operating point) for solution version v.
//
//oftec:hotpath
func (m *Model) storeResult(v uint64, res *Result) {
	if v == 0 {
		return
	}
	m.resMu.Lock()
	defer m.resMu.Unlock()
	if len(m.resMem) >= maxResults {
		//lint:ignore hotalloc amortized wholesale clear, at most once per maxResults stores
		m.resMem = make(map[uint64]*Result)
	}
	m.resMem[v] = res
}

// assembleInto refreshes sc with the system at the given operating point:
// an O(nnz) copy of the frozen base values followed by O(n) diagonal and
// RHS patches. It mirrors assembleReference exactly (the equivalence suite
// pins the two paths to ≤1e-12); the matrix comes back unversioned, so a
// caller that forgets to stamp a version degrades to uncached solves, never
// to wrong factorization reuse. A nil leakConst with linearLeak=false
// leaves the leakage out entirely — the exact fixed-point loop patches it
// into the RHS per iteration.
//
//oftec:hotpath
func (m *Model) assembleInto(sc *evalScratch, omega float64, cur func(int) float64, linearLeak bool, leakConst []float64) {
	copy(sc.vals, m.baseVals)
	copy(sc.rhs, m.baseRHS)

	// Actuator-dependent sink-to-ambient conductance g(u).
	g := m.act.Conductance(omega)
	for i, frac := range m.sinkFrac {
		n := m.node(planeSink, i)
		sc.vals[m.diagIdx[n]] += g * frac
		sc.rhs[n] += g * frac * m.cfg.Ambient
	}

	// Chip layer: dynamic power and leakage.
	for i, p := range m.dyn {
		n := m.node(planeChip, i)
		sc.rhs[n] += p
		switch {
		case linearLeak:
			// p_leak = a(T−Tref)+b  →  diag −= a, rhs += b − a·Tref.
			sc.vals[m.diagIdx[n]] -= m.leakA[i]
			sc.rhs[n] += m.leakB[i] - m.leakA[i]*m.leakTref
		case leakConst != nil:
			sc.rhs[n] += leakConst[i]
		}
	}

	// TEC sources (Equations (5)-(7)): Peltier terms fold into the
	// diagonal; Joule heat is a constant injection at the gen plane.
	for i, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		iTEC := cur(i)
		if iTEC == 0 {
			continue
		}
		sc.vals[m.diagIdx[m.node(planeTECCold, i)]] += alpha * iTEC
		sc.vals[m.diagIdx[m.node(planeTECHot, i)]] -= alpha * iTEC
		sc.rhs[m.node(planeTECMid, i)] += m.tecR[i] * iTEC * iTEC
	}

	sc.mat.SetVersion(0)
	sc.mat.MarkSymmetric(true)
}

// solveScratch runs the sparse solve through the scratch workspace. All
// steady-state paths (scalar, zoned, exact, batched) share the ω-slice
// preconditioner: one IC(0) factorization of the canonical I_TEC = 0
// matrix serves every operating point in the slice, since the per-point
// systems differ only in a few TEC diagonal terms. The preconditioner is
// slightly weaker at large currents, but the solve converges on the true
// residual of the patched matrix to the same tolerance either way, and a
// 40×40 sweep pays 40 factorizations instead of 1600.
//
//oftec:hotpath
func (m *Model) solveScratch(sc *evalScratch, omega float64, warm []float64) ([]float64, sparse.Stats, error) {
	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, X0: warm, Work: &sc.ws}
	if ic, ok := m.slicePrecond(omega); ok {
		opts.Precond = ic
	}
	return sparse.SolveAuto(sc.mat, sc.rhs, opts)
}

// slicePrecond returns the cached IC(0) preconditioner of the ω-slice's
// canonical matrix (the I_TEC = 0 assembly — the same matrix version
// EvaluateWarm(ω, 0) stamps), building and caching it on first sight.
//
//oftec:allocok one canonical assembly + factorization per ω-slice, amortized across every point in the slice
func (m *Model) slicePrecond(omega float64) (*sparse.ICPreconditioner, bool) {
	sliceVer := m.versionFor(verKey{omega: omega, linear: true})
	return m.factors.ICVersioned(sliceVer, func() (*sparse.ICPreconditioner, error) {
		sc := m.getScratch()
		defer m.putScratch(sc)
		sparse.Fill(sc.cur, 0)
		m.assembleInto(sc, omega, sc.cell, true, nil)
		return sparse.NewICPreconditioner(sc.mat)
	})
}

// solveScratchOwn is solveScratch with a preconditioner factored from
// the scratch matrix itself, keyed on its stamped version. The transient
// integrator uses it: its matrices carry the C/Δt diagonal patch on
// every row, far from the canonical slice matrix, so the shared slice
// preconditioner would fit poorly there.
//
//oftec:hotpath
func (m *Model) solveScratchOwn(sc *evalScratch, warm []float64) ([]float64, sparse.Stats, error) {
	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, X0: warm, Work: &sc.ws}
	if sc.mat.Version() != 0 {
		if ic, ok := m.factors.IC(sc.mat); ok {
			opts.Precond = ic
		}
	}
	return sparse.SolveAuto(sc.mat, sc.rhs, opts)
}

// assembleReference builds the system matrix and RHS for the given
// operating point through a fresh sparse.Builder. It is the slow reference
// implementation of the assembly — the production path is assembleInto,
// and the equivalence suite asserts the two agree to 1e-12. cur supplies
// the TEC driving current per chip-grid cell (the paper's series
// deployment uses a uniform current; the zoned extension drives groups of
// modules independently). linearLeak selects whether the Taylor leakage is
// folded into the system (true) or the provided constant per-cell leakage
// powers are used (false, for the exact fixed-point iteration).
func (m *Model) assembleReference(omega float64, cur func(int) float64, linearLeak bool, leakConst []float64) (*sparse.CSR, []float64, error) {
	b := sparse.NewBuilder(m.n)
	for _, t := range m.base {
		b.Add(t.i, t.j, t.v)
	}
	rhs := make([]float64, m.n)
	copy(rhs, m.baseRHS)

	// Actuator-dependent sink-to-ambient conductance g(u).
	g := m.act.Conductance(omega)
	for i, frac := range m.sinkFrac {
		n := m.node(planeSink, i)
		b.AddDiag(n, g*frac)
		rhs[n] += g * frac * m.cfg.Ambient
	}

	// Chip layer: dynamic power and leakage.
	for i, p := range m.dyn {
		n := m.node(planeChip, i)
		rhs[n] += p
		if linearLeak {
			// p_leak = a(T−Tref)+b  →  diag −= a, rhs += b − a·Tref.
			b.AddDiag(n, -m.leakA[i])
			rhs[n] += m.leakB[i] - m.leakA[i]*m.leakTref
		} else {
			rhs[n] += leakConst[i]
		}
	}

	// TEC sources (Equations (5)-(7)): Peltier terms are linear in the
	// node temperature and fold into the diagonal; Joule heat is a
	// constant injection at the gen plane.
	for i, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		iTEC := cur(i)
		if iTEC == 0 {
			continue
		}
		// Cold node: p = −α·I·T_c → diag += α·I.
		b.AddDiag(m.node(planeTECCold, i), alpha*iTEC)
		// Hot node: p = +α·I·T_h → diag −= α·I.
		b.AddDiag(m.node(planeTECHot, i), -alpha*iTEC)
		// Gen node: Joule heat R·I².
		rhs[m.node(planeTECMid, i)] += m.tecR[i] * iTEC * iTEC
	}

	mat, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return mat, rhs, nil
}

// solve runs the sparse solve with a warm start when available.
func (m *Model) solve(mat *sparse.CSR, rhs, warm []float64) ([]float64, sparse.Stats, error) {
	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, X0: warm}
	return sparse.SolveAuto(mat, rhs, opts)
}

// Evaluate computes the steady state at the operating point (ω, I_TEC)
// using the Taylor-linearized leakage folded into the linear system —
// constraint (14) as one sparse solve. A runaway steady state (divergent,
// non-physical, or hotter than the runaway threshold) is reported in
// Result.Runaway with infinite temperature/power figures rather than as an
// error, matching the paper's description of 𝒫 and 𝒯 tending to infinity.
func (m *Model) Evaluate(omega, iTEC float64) (*Result, error) {
	return m.EvaluateWarm(nil, Point{Omega: omega, Currents: []float64{iTEC}}, nil)
}

// Point is one steady-state operating point: the actuator command and one
// TEC driving current per control zone (length one under the paper's
// deployment).
type Point struct {
	Omega    float64
	Currents []float64
}

// EvaluateWarm computes the steady state at p under zoning z — nil is the
// paper's deployment, every module in series on one current. The result's
// ITEC field holds the largest zone current. warm is an optional
// warm-start temperature field of length NumNodes — typically the solution
// at a neighboring operating point; nil starts from a uniform ambient
// field. Sweeps and line searches that walk the operating space hand the
// previous solution forward and cut the CG iteration count substantially.
// The warm slice is read, never written; it only steers the iterative
// solver, so a memoized result for the exact operating point is returned
// without re-solving either way.
//
// A one-zone point (nil or any k = 1 zoning) is versioned: its matrix
// stamps the factor cache and its Result is memoized, so every zoning of
// it returns the identical Result. k > 1 current patterns are neither.
//
//oftec:hotpath
func (m *Model) EvaluateWarm(z *Zoning, p Point, warm []float64) (*Result, error) {
	z = m.zoningOr(z)
	maxCur, err := m.checkPoint(z, p)
	if err != nil {
		return nil, err
	}
	if err := m.checkWarm(warm); err != nil {
		return nil, err
	}
	ver := m.solutionVersion(z, p)
	if res, ok := m.loadResult(ver); ok {
		return res, nil
	}
	sc := m.getScratch()
	defer m.putScratch(sc)
	sc.loadCurrents(z, p.Currents)
	m.assembleInto(sc, p.Omega, sc.cell, true, nil)
	sc.mat.SetVersion(ver)
	if warm == nil {
		sparse.Fill(sc.warm, m.cfg.Ambient)
		warm = sc.warm
	}
	t, stats, err := m.solveScratch(sc, p.Omega, warm)
	res := m.linearResult(p.Omega, maxCur, sc.cell, t, stats, err)
	m.storeResult(ver, res)
	return res, nil
}

// zoningOr resolves a nil zoning to the model's one-zone zoning.
func (m *Model) zoningOr(z *Zoning) *Zoning {
	if z == nil {
		return m.one
	}
	return z
}

// solutionVersion is the memo key of p's linearized solution: the matrix
// version of a one-zone point, or 0 (never memoized, never factor-cached)
// for a k > 1 current pattern, which the scalar version key cannot name —
// a wrong reuse would be silent.
func (m *Model) solutionVersion(z *Zoning, p Point) uint64 {
	if z.numZones != 1 {
		return 0
	}
	return m.versionFor(verKey{omega: p.Omega, itec: p.Currents[0], linear: true})
}

// linearResult is the result tail of every linearized solve: a failed or
// non-physical solve, or a field past the runaway threshold, is runaway;
// anything else materializes the Result. cur is the per-cell current the
// system was assembled at and maxCur the largest of them.
func (m *Model) linearResult(omega, maxCur float64, cur func(int) float64, t []float64, stats sparse.Stats, solveErr error) *Result {
	if solveErr != nil || !m.physical(t) {
		return m.runawayResult(omega, maxCur, stats)
	}
	res := m.buildResult(omega, maxCur, cur, t, stats, true)
	if res.MaxChipTemp > m.cfg.runawayTemp() {
		return m.runawayResult(omega, maxCur, stats)
	}
	return res
}

// EvaluateExact computes the steady state using the exact exponential
// leakage model via fixed-point iteration (the paper's "iteratively
// calculate ... until the process converges"). Divergence is thermal
// runaway, reported in Result.Runaway.
func (m *Model) EvaluateExact(omega, iTEC float64) (*Result, error) {
	if err := m.checkOperatingPoint(omega, iTEC); err != nil {
		return nil, err
	}
	// The solution memo keys exact results under linear=false — distinct
	// from the matrix version below, which is shared with the linearized
	// path (same matrix, different fixed point).
	solVer := m.versionFor(verKey{omega: omega, itec: iTEC, linear: false})
	if res, ok := m.loadResult(solVer); ok {
		return res, nil
	}
	sc := m.getScratch()
	defer m.putScratch(sc)

	// The system matrix is hoisted out of the fixed-point loop entirely.
	// Keeping the Taylor leakage folded into the matrix (exactly as in the
	// linearized path — so the factorization is shared with Evaluate at the
	// same operating point) and iterating only on the second-order Taylor
	// remainder  P0·e^{β(T−T0)} − (a(T−Tref)+b)  leaves a Picard map whose
	// slope is the remainder's derivative — near zero over the regression
	// range — instead of the full leakage slope. The fixed point is
	// unchanged (at convergence T = tChip and the a·(T−tChip) correction
	// vanishes); the contraction is much faster, and each refresh touches
	// only the n_chip RHS entries. Inner solves warm-start from the
	// previous iterate.
	sparse.Fill(sc.cur, iTEC)
	m.assembleInto(sc, omega, sc.cell, true, nil)
	sc.mat.SetVersion(m.versionFor(verKey{omega: omega, itec: iTEC, linear: true}))
	nc := m.grids[planeChip].NumCells()
	for i := 0; i < nc; i++ {
		sc.chipRHS[i] = sc.rhs[m.node(planeChip, i)]
	}
	tChip := sc.tChip
	sparse.Fill(tChip, m.cfg.Ambient)
	sparse.Fill(sc.warm, m.cfg.Ambient)
	warm := sc.warm
	var t []float64
	var stats sparse.Stats

	const maxOuter = 60
	for outer := 0; outer < maxOuter; outer++ {
		for i := 0; i < nc; i++ {
			exact := m.leakP0[i] * math.Exp(m.leakBeta*(tChip[i]-m.leakT0))
			taylor := m.leakA[i]*(tChip[i]-m.leakTref) + m.leakB[i]
			sc.rhs[m.node(planeChip, i)] = sc.chipRHS[i] + exact - taylor
		}
		var solveErr error
		t, stats, solveErr = m.solveScratch(sc, omega, warm)
		if solveErr != nil || !m.physical(t) {
			res := m.runawayResult(omega, iTEC, stats)
			m.storeResult(solVer, res)
			return res, nil
		}
		warm = t
		var maxDelta, maxT float64
		for i := 0; i < nc; i++ {
			nt := t[m.node(planeChip, i)]
			if d := math.Abs(nt - tChip[i]); d > maxDelta {
				maxDelta = d
			}
			if nt > maxT {
				maxT = nt
			}
			tChip[i] = nt
		}
		if maxT > m.cfg.runawayTemp() {
			res := m.runawayResult(omega, iTEC, stats)
			m.storeResult(solVer, res)
			return res, nil
		}
		if maxDelta < 1e-4 {
			res := m.buildResult(omega, iTEC, sc.cell, t, stats, false)
			res.OuterIterations = outer + 1
			m.storeResult(solVer, res)
			return res, nil
		}
	}
	// No convergence within the budget: treat as runaway.
	res := m.runawayResult(omega, iTEC, stats)
	m.storeResult(solVer, res)
	return res, nil
}

// checkPoint validates an operating point against zoning z and returns
// its largest zone current.
//
//oftec:allocok cold validation path; error values are built only on caller misuse
func (m *Model) checkPoint(z *Zoning, p Point) (maxCur float64, err error) {
	if len(p.Currents) != z.numZones {
		return 0, fmt.Errorf("thermal: %d currents for %d zones", len(p.Currents), z.numZones)
	}
	for _, c := range p.Currents {
		if err := m.checkOperatingPoint(p.Omega, c); err != nil {
			return 0, err
		}
		maxCur = math.Max(maxCur, c)
	}
	return maxCur, nil
}

//oftec:allocok cold validation path; error values are built only on caller misuse
func (m *Model) checkOperatingPoint(omega, iTEC float64) error {
	if math.IsNaN(omega) || math.IsNaN(iTEC) {
		return fmt.Errorf("thermal: operating point (ω=%g, I=%g) contains NaN", omega, iTEC)
	}
	if omega < 0 {
		return fmt.Errorf("thermal: fan speed ω=%g must be non-negative", omega)
	}
	if iTEC < 0 {
		return fmt.Errorf("thermal: TEC current I=%g must be non-negative", iTEC)
	}
	return nil
}

// checkWarm validates an optional warm-start field's length.
//
//oftec:allocok cold validation path; error values are built only on caller misuse
func (m *Model) checkWarm(warm []float64) error {
	if warm != nil && len(warm) != m.n {
		return fmt.Errorf("thermal: warm start has %d nodes, model has %d", len(warm), m.n)
	}
	return nil
}

// physical reports whether the temperature field is physically meaningful.
func (m *Model) physical(t []float64) bool {
	if t == nil {
		return false
	}
	for _, v := range t {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return false
		}
	}
	return true
}
