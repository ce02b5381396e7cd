package thermal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"oftec/internal/coolant"
	"oftec/internal/floorplan"
	"oftec/internal/grid"
	"oftec/internal/leakage"
	"oftec/internal/power"
	"oftec/internal/sparse"
)

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

// network is everything NewModel derives from the Config alone: the
// actuator, the grids and node offsets, the base couplings and RHS, the
// sink fractions, the per-cell TEC and leakage parameters, the frozen
// symbolic assembly, and the per-evaluation scratch pool. It is immutable
// once built and shared by every Model of one configuration (see
// networkFor); only the dynamic power, which enters the RHS alone, and the
// result memo built on it are per model.
type network struct {
	// act is the cooling actuator resolved from the configuration: the
	// model consumes g(u) and the drive power only through this seam.
	act coolant.Actuator

	// grids are read-only once built: buildTEC is the only writer of a
	// cell conductivity, and ChipGrid hands out the shared chip grid.
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

	// Per chip-grid-cell leakage data.
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

	// Symbolic-assembly state: the sparsity pattern of every
	// per-evaluation system is identical (the variable contributions —
	// sink conductance, Taylor-leakage slope, Peltier terms — are all
	// diagonal, and the pattern stores a structural diagonal in every
	// row), so per-evaluation assembly is an O(nnz) value copy plus O(n)
	// diagonal/RHS patches into pooled scratch.
	basePat  *sparse.CSR // merged base couplings, structural diagonal everywhere
	baseVals []float64   // basePat's value array (patch copy source)
	diagIdx  []int32     // per-row index of the diagonal slot in the value array

	// icSym is the IC(0) analysis of basePat, shared by every
	// factorization a model makes: each one owns only its values.
	icSym *sparse.ICSymbolic
	// slicePre eliminates every column before the sink plane, which no
	// steady ω-slice's matrix varies: slices differ only in the sink
	// cells' diagonal, and the sink plane is the last block of rows. Each
	// steady solve's factorization finishes from it (see factorSlice).
	// Nil when those columns do not factor, which fails every slice.
	slicePre *sparse.ICPrefix

	// scratch pools per-evaluation workspaces (matrix values, RHS, warm
	// vector, CG work arrays) so concurrent Evaluate stays race-free
	// without per-call allocation. It belongs to the network, not the
	// model: a discarded model leaves no pool behind.
	scratch sync.Pool
	// adjointWork pools the CG workspace of a gradient's temperature
	// adjoint (see gradientAt), the one thing the pair's second solve
	// needs that its evaluation scratch cannot lend it.
	adjointWork sync.Pool
}

// Model is the assembled thermal network of one cooling package under one
// dynamic power map. It is safe for concurrent Evaluate calls once built,
// as long as SetDynamicPower is not called concurrently.
type Model struct {
	// network is the configuration's shared, read-only assembly.
	*network

	cfg Config

	// one is the paper's deployment as a zoning: every module in one
	// series string. A nil *Zoning argument means this one.
	one *Zoning

	dynMap power.Map // last SetDynamicPower input (for WithCoolant rebuilds)
	dyn    []float64 // dynamic power per chip-grid cell, W

	// resMem memoizes Results, and their adjoint Gradients once asked
	// for, by operating point (see memoKey): the second-level cache below
	// core's bounded evaluation cache. A repeated operating point of any
	// zone count (the dominant pattern in line searches, gradient forward
	// solves, the objective and constraint gradients at one SQP iterate,
	// and the optimizer's final certification) returns the identical
	// first-computed Result or Gradient, so re-solves after an upstream
	// cache eviction stay bit-reproducible. SetDynamicPower flushes the
	// memo.
	resMu  sync.Mutex
	resMem map[string]memoEntry

	// dynGen counts SetDynamicPower calls. Derived evaluators that bake
	// the dynamic power into precomputed state (the reduced-order model's
	// projected RHS) compare generations to refresh lazily instead of
	// registering callbacks.
	dynGen atomic.Uint64
}

// evalScratch is one pooled per-evaluation workspace.
type evalScratch struct {
	// mat shares basePat's pattern, and its values alias vals, which hold
	// basePat's values off the diagonal from the pool on (see
	// assembleInto).
	mat  *sparse.CSR
	vals []float64
	rhs  []float64
	warm []float64
	ws   sparse.Workspace
	// ic is the ω-slice factorization of the system in flight (see
	// factorSlice), in the scratch's own value array.
	ic sparse.ICPreconditioner

	// EvaluateExact fixed-point scratch (chip-cell sized).
	chipRHS []float64 // leak-free RHS at the chip nodes
	tChip   []float64

	// cur is the per-cell TEC current of the evaluation in flight (see
	// loadCurrents).
	cur []float64

	// key holds the result-memo key of the point in flight (see memoKey),
	// sized for the widest zoning the model admits.
	key []byte
}

// loadCurrents writes the per-cell TEC current of an operating point
// under zoning z into the scratch: cell i carries currents[z.zoneOf[i]].
func (sc *evalScratch) loadCurrents(z *Zoning, currents []float64) {
	for i, zone := range z.zoneOf {
		sc.cur[i] = currents[zone]
	}
}

// NewModel builds the model of the given configuration and dynamic power
// map on the configuration's shared network, assembling the network on
// first sight of the configuration.
func NewModel(cfg Config, dyn power.Map) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := networkFor(&cfg)
	if err != nil {
		return nil, err
	}
	return newModel(net, cfg, dyn)
}

// newModel is the per-model half of NewModel: the caller's configuration,
// the one-zone zoning, the dynamic power, and an empty result memo on net.
func newModel(net *network, cfg Config, dyn power.Map) (*Model, error) {
	m := &Model{
		network: net,
		cfg:     cfg,
		one:     &Zoning{id: zoningIDs.Add(1), numZones: 1, zoneOf: make([]int, net.grids[planeChip].NumCells())},
	}
	if err := m.SetDynamicPower(dyn); err != nil {
		return nil, err
	}
	return m, nil
}

// maxNetworks bounds the process-wide network cache (a network holds about
// 1.2 MB at paper resolution). Past the bound it clears wholesale, like
// the result memo.
const maxNetworks = 8

// networks caches networks by networkKey.
var networks = struct {
	sync.Mutex
	m map[string]*network
}{m: make(map[string]*network)}

// networkKey is a configuration's canonical JSON: the identity the serve
// pool already relies on. Every numeric leaf of the
// configuration, the floorplan's unit rectangles included, moves it.
func networkKey(cfg *Config) (string, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("thermal: keying config: %w", err)
	}
	return string(b), nil
}

// networkFor returns the shared network of a validated configuration. A
// miss builds outside the lock; concurrent misses on one key may both
// build, harmlessly, since the builds are bit-identical, and the first
// one stored is the one every caller gets.
func networkFor(cfg *Config) (*network, error) {
	key, err := networkKey(cfg)
	if err != nil {
		return nil, err
	}
	networks.Lock()
	net, ok := networks.m[key]
	networks.Unlock()
	if ok {
		return net, nil
	}
	if net, err = newNetwork(cfg); err != nil {
		return nil, err
	}
	networks.Lock()
	defer networks.Unlock()
	if prev, ok := networks.m[key]; ok {
		return prev, nil
	}
	if len(networks.m) >= maxNetworks {
		networks.m = make(map[string]*network)
	}
	networks.m[key] = net
	return net, nil
}

// newNetwork assembles the network of a validated configuration.
func newNetwork(cfg *Config) (*network, error) {
	act, err := cfg.Actuator()
	if err != nil {
		return nil, err
	}
	net := &network{act: act}
	if err := net.buildGrids(cfg); err != nil {
		return nil, err
	}
	net.indexNodes()
	if err := net.buildTEC(cfg); err != nil {
		return nil, err
	}
	net.buildConduction(cfg)
	if err := net.buildLeakage(cfg); err != nil {
		return nil, err
	}
	if err := net.buildSymbolic(); err != nil {
		return nil, err
	}
	return net, nil
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
// model. A nil spec selects the air path. A model already carrying an
// equal spec is returned as is.
func (m *Model) WithCoolant(spec *coolant.Spec) (*Model, error) {
	if reflect.DeepEqual(m.cfg.Coolant, spec) {
		return m, nil
	}
	cfg := m.cfg
	cfg.Coolant = spec
	return NewModel(cfg, m.dynMap)
}

// NumNodes returns the total number of temperature nodes.
func (m *Model) NumNodes() int { return m.n }

// NumTEC returns the number of deployed TEC modules (covered cells).
func (m *Model) NumTEC() int { return m.numTEC }

// ChipGrid returns the chip-layer grid (useful for mapping results). The
// grid is shared by every model of the configuration and must not be
// modified.
func (m *Model) ChipGrid() *grid.Grid { return m.grids[planeChip] }

func centered(center floorplan.Rect, edge float64) floorplan.Rect {
	cx, cy := center.Center()
	return floorplan.Rect{X: cx - edge/2, Y: cy - edge/2, W: edge, H: edge}
}

func (net *network) buildGrids(cfg *Config) error {
	die := floorplan.Rect{X: 0, Y: 0, W: cfg.Floorplan.Width, H: cfg.Floorplan.Height}

	mk := func(plane int, outline floorplan.Rect, spec LayerSpec, res int) error {
		g, err := grid.New(planeNames[plane], outline, spec.Thickness, res, res, spec.Material)
		if err != nil {
			return err
		}
		net.grids[plane] = g
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

func (net *network) indexNodes() {
	n := 0
	for p := 0; p < numPlanes; p++ {
		net.off[p] = n
		n += net.grids[p].NumCells()
	}
	net.n = n
}

// node maps (plane, cell) to a global node index.
func (net *network) node(plane, cell int) int { return net.off[plane] + cell }

// buildTEC decides module coverage per chip-grid cell and instantiates the
// per-cell module parameters from the areal spec. It is the only writer
// of a grid cell's conductivity; the network is read-only after it.
func (net *network) buildTEC(cfg *Config) error {
	chip := net.grids[planeChip]
	nc := chip.NumCells()
	net.tecAlpha = make([]float64, nc)
	net.tecR = make([]float64, nc)

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
		net.tecAlpha[i] = cfg.TEC.SeebeckPerArea * area
		net.tecR[i] = cfg.TEC.ResistancePerArea * area
		net.numTEC++
	}
	if net.numTEC == 0 {
		return fmt.Errorf("thermal: TEC deployment covers no cells")
	}

	// The gen plane's lateral conductivity: module material on covered
	// cells, filler elsewhere.
	mid := net.grids[planeTECMid]
	for i := 0; i < nc; i++ {
		k := cfg.TEC.LateralConductivity
		if net.tecAlpha[i] == 0 {
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
func (net *network) buildConduction(cfg *Config) {
	net.baseRHS = make([]float64, net.n)

	addCoupling := func(i, j int, g float64) {
		net.base = append(net.base,
			triplet{i, i, g}, triplet{j, j, g},
			triplet{i, j, -g}, triplet{j, i, -g})
	}

	// Lateral conduction within the conducting planes. The cold and rej
	// planes are interface planes without lateral paths of their own.
	for _, p := range []int{planePCB, planeChip, planeTIM1, planeTECMid, planeSpreader, planeTIM2, planeSink} {
		for _, lc := range net.grids[p].LateralCouplings() {
			addCoupling(net.node(p, lc.A), net.node(p, lc.B), lc.G)
		}
	}

	// Vertical conduction between stacked conduction layers.
	for _, pair := range [][2]int{
		{planePCB, planeChip},
		{planeChip, planeTIM1},
		{planeSpreader, planeTIM2},
		{planeTIM2, planeSink},
	} {
		for _, vc := range grid.CoupleVertical(net.grids[pair[0]], net.grids[pair[1]]) {
			addCoupling(net.node(pair[0], vc.Lower), net.node(pair[1], vc.Upper), vc.G)
		}
	}

	// TIM1 top face to the TEC absorption plane: only TIM1's half
	// thickness stands between its center node and the interface plane.
	tim1 := net.grids[planeTIM1]
	for i := 0; i < tim1.NumCells(); i++ {
		addCoupling(net.node(planeTIM1, i), net.node(planeTECCold, i), tim1.VerticalHalfConductance(i))
	}

	// Inside the TEC layer (Figure 4): covered cells couple abs–gen and
	// gen–rej with conductance 2·K_TEC; filler cells conduct through the
	// filler material's half thickness.
	chip := net.grids[planeChip]
	area := chip.CellArea()
	for i := 0; i < chip.NumCells(); i++ {
		var g float64
		if net.tecAlpha[i] != 0 {
			g = 2 * cfg.TEC.ConductancePerArea * area
		} else {
			g = cfg.TEC.FillerConductivity * area / (cfg.TEC.Thickness / 2)
		}
		addCoupling(net.node(planeTECCold, i), net.node(planeTECMid, i), g)
		addCoupling(net.node(planeTECMid, i), net.node(planeTECHot, i), g)
	}

	// TEC rejection plane to the spreader: the spreader's half thickness,
	// overlap-weighted because the footprints differ.
	hot := net.grids[planeTECHot]
	spr := net.grids[planeSpreader]
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
				addCoupling(net.node(planeTECHot, hi), net.node(planeSpreader, si), g)
			}
		}
	}

	// PCB secondary path to ambient: constant, so it lives in the base.
	pcb := net.grids[planePCB]
	if cfg.PCBToAmbient > 0 {
		per := cfg.PCBToAmbient / float64(pcb.NumCells())
		for i := 0; i < pcb.NumCells(); i++ {
			n := net.node(planePCB, i)
			net.base = append(net.base, triplet{n, n, per})
			net.baseRHS[n] += per * cfg.Ambient
		}
	}

	// Sink-to-ambient area fractions; the conductance itself depends on ω.
	sink := net.grids[planeSink]
	net.sinkFrac = make([]float64, sink.NumCells())
	for i := range net.sinkFrac {
		net.sinkFrac[i] = 1 / float64(sink.NumCells())
	}
}

// buildLeakage samples the exponential law and regresses the per-cell
// Taylor coefficients, reproducing the paper's McPAT procedure.
func (net *network) buildLeakage(cfg *Config) error {
	chip := net.grids[planeChip]
	nc := chip.NumCells()
	area := chip.CellArea()

	net.leakBeta = cfg.Leakage.Beta
	net.leakT0 = cfg.Leakage.T0
	net.leakTref = cfg.Leakage.Tref
	net.leakP0 = make([]float64, nc)
	net.leakA = make([]float64, nc)
	net.leakB = make([]float64, nc)

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
	// Floorplan order, not map order: a cell under two listed units sums
	// them in one order, so every build of a configuration is
	// bit-identical.
	for _, u := range cfg.Floorplan.Units() {
		mult, ok := cfg.Leakage.UnitMultipliers[u.Name]
		if !ok {
			continue
		}
		for _, idx := range chip.CellsIntersecting(u.Rect) {
			factors[idx] += (mult - 1) * chip.OverlapFraction(idx, u.Rect)
		}
	}

	for i := 0; i < nc; i++ {
		p0 := cfg.Leakage.P0Density * area * factors[i]
		net.leakP0[i] = p0
		net.leakA[i] = taylor.A * p0
		net.leakB[i] = taylor.B * p0
	}
	return nil
}

// SetDynamicPower replaces the per-unit dynamic power input and flushes
// the result memo (dynamic power enters the RHS, so memoized results are
// stale; no matrix depends on it, so a Transient keeps its step factor).
func (m *Model) SetDynamicPower(dyn power.Map) error {
	cells, err := dyn.ToCells(m.cfg.Floorplan, m.grids[planeChip])
	if err != nil {
		return err
	}
	m.dynMap = dyn
	m.dyn = cells
	m.dynGen.Add(1)
	m.resMu.Lock()
	m.resMem = make(map[string]memoEntry)
	m.resMu.Unlock()
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

// buildSymbolic freezes the shared sparsity pattern and the reuse
// machinery, once per network. Every per-evaluation system shares one
// pattern: the variable contributions (sink conductance, Taylor-leakage
// slope, Peltier terms, backward-Euler C/Δt) are all diagonal, and
// BuildWithDiagonal stores a structural diagonal in every row, so
// assembleInto never needs a sparse.Builder and one IC(0) analysis
// serves every factorization a model makes.
//
// The same fact is the symmetry contract sparse.CGPrecond relies on:
// every per-point term is diagonal, so every system on the pattern is
// symmetric exactly when the base couplings are, which is checked here
// once. It is also why an adjoint solve is a forward solve (Aᵀ = A).
func (net *network) buildSymbolic() error {
	b := sparse.NewBuilder(net.n)
	for _, t := range net.base {
		b.Add(t.i, t.j, t.v)
	}
	pat, err := b.BuildWithDiagonal()
	if err != nil {
		return err
	}
	// The base couplings are symmetric by construction (addCoupling adds
	// both triangles).
	if !pat.IsSymmetric(1e-12) {
		return fmt.Errorf("thermal: base conduction matrix is not symmetric")
	}
	net.basePat = pat
	net.baseVals = make([]float64, pat.NNZ())
	if err := pat.CopyValues(net.baseVals); err != nil {
		return err
	}
	if net.diagIdx, err = pat.DiagIndices(); err != nil {
		return err
	}
	if net.icSym, err = sparse.NewICSymbolic(pat); err != nil {
		return err
	}
	// The leading block of every slice: the base values with the
	// linearized leakage slope on the chip diagonal, as assembleInto
	// writes them. Only the sink plane, past the split, sees g(ω).
	lead := slices.Clone(net.baseVals)
	for i, a := range net.leakA {
		lead[net.diagIdx[net.node(planeChip, i)]] -= a
	}
	leadMat, err := pat.WithValues(lead)
	if err != nil {
		return err
	}
	// A prefix that does not factor leaves slicePre nil, and every slice
	// fails with it: Factor would meet the same pivot in each.
	if pre, err := net.icSym.Prefix(leadMat, net.off[planeSink]); err == nil {
		net.slicePre = pre
	}
	net.adjointWork.New = func() any { return new(sparse.Workspace) }
	nc := net.grids[planeChip].NumCells()
	net.scratch.New = func() any {
		sc := &evalScratch{
			vals:    slices.Clone(net.baseVals),
			rhs:     make([]float64, net.n),
			warm:    make([]float64, net.n),
			chipRHS: make([]float64, nc),
			tChip:   make([]float64, nc),
			cur:     make([]float64, nc),
			// Every zone holds a module, so no zoning has more than
			// numTEC zones.
			key: make([]byte, keyHead+8*net.numTEC),
		}
		mat, werr := pat.WithValues(sc.vals)
		if werr != nil {
			// Unreachable: the value slice is sized to the pattern above.
			panic(werr)
		}
		sc.mat = mat
		return sc
	}
	return nil
}

func (net *network) getScratch() *evalScratch   { return net.scratch.Get().(*evalScratch) }
func (net *network) putScratch(sc *evalScratch) { net.scratch.Put(sc) }

// maxResults bounds the result memo (each entry holds a full temperature
// field, NumNodes×8 bytes, so the bound caps the memory at a few
// megabytes). Past the bound it clears wholesale.
const maxResults = 256

// keyHead is the fixed part of a memo key: zoning id, leakage treatment,
// and ω. Each zone current adds eight bytes.
const keyHead = 8 + 1 + 8

// memoKey writes the result-memo key of an operating point into sc.key
// and returns it: the zoning's id, whether the leakage is linearized, ω,
// and every zone current, all bit for bit — one rule for every zone
// count. Zoning ids are never reused, so a collected zoning cannot alias
// a later one.
//
//oftec:hotpath
func (sc *evalScratch) memoKey(z *Zoning, linear bool, omega float64, currents []float64) []byte {
	key := sc.key[:keyHead+8*len(currents)]
	binary.LittleEndian.PutUint64(key, z.id)
	key[8] = 0
	if linear {
		key[8] = 1
	}
	binary.LittleEndian.PutUint64(key[9:], math.Float64bits(omega))
	for i, c := range currents {
		binary.LittleEndian.PutUint64(key[keyHead+8*i:], math.Float64bits(c))
	}
	return key
}

// memoEntry is one memoized operating point: its Result, and its adjoint
// Gradient once one has been asked for (see EvaluateGrad).
type memoEntry struct {
	res  *Result
	grad *Gradient
}

// loadMemo returns the memo entry for a memo key. The pointers are
// shared, exactly as core's evaluation cache shares results across
// callers.
//
//oftec:hotpath
func (m *Model) loadMemo(key []byte) (memoEntry, bool) {
	m.resMu.Lock()
	defer m.resMu.Unlock()
	e, ok := m.resMem[string(key)]
	return e, ok
}

// storeResult memoizes a computed Result (converged or runaway — both are
// deterministic functions of the operating point) under a memo key.
//
//oftec:allocok runs once per memo miss, next to the solve and the Result it stores
func (m *Model) storeResult(key []byte, res *Result) {
	m.resMu.Lock()
	defer m.resMu.Unlock()
	if len(m.resMem) >= maxResults {
		m.resMem = make(map[string]memoEntry)
	}
	m.resMem[string(key)] = memoEntry{res: res}
}

// storeGrad memoizes a computed Gradient with its Result under a memo key
// and returns the Gradient the memo holds: the first one stored wins, so
// concurrent callers at one point converge on one pointer.
func (m *Model) storeGrad(key []byte, g *Gradient) *Gradient {
	m.resMu.Lock()
	defer m.resMu.Unlock()
	e, ok := m.resMem[string(key)]
	if e.grad != nil {
		return e.grad
	}
	if !ok && len(m.resMem) >= maxResults {
		m.resMem = make(map[string]memoEntry)
	}
	m.resMem[string(key)] = memoEntry{res: g.Result, grad: g}
	return g
}

// assembleInto refreshes sc with the system at the given operating point:
// the n diagonal slots reset to the frozen base values, then O(n)
// diagonal and RHS patches. Every per-point term is diagonal, and so is
// every write to sc.vals, so the off-diagonal values the scratch was
// built with stay the base's. cur is the TEC current per chip-grid cell.
// It mirrors assembleReference exactly (the equivalence suite pins the
// two paths to ≤1e-12). A nil leakConst with linearLeak=false leaves the
// leakage out entirely — the exact fixed-point loop patches it into the
// RHS per iteration.
//
//oftec:hotpath
func (m *Model) assembleInto(sc *evalScratch, omega float64, cur []float64, linearLeak bool, leakConst []float64) {
	for _, k := range m.diagIdx {
		sc.vals[k] = m.baseVals[k]
	}
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
		iTEC := cur[i]
		if iTEC == 0 {
			continue
		}
		sc.vals[m.diagIdx[m.node(planeTECCold, i)]] += alpha * iTEC
		sc.vals[m.diagIdx[m.node(planeTECHot, i)]] -= alpha * iTEC
		sc.rhs[m.node(planeTECMid, i)] += m.tecR[i] * iTEC * iTEC
	}
}

// assembleSlice assembles the ω-slice's canonical system, the I_TEC = 0
// linearized assembly, into sc.
func (m *Model) assembleSlice(sc *evalScratch, omega float64) {
	sparse.Fill(sc.cur, 0)
	m.assembleInto(sc, omega, sc.cur, true, nil)
}

// solveScratch runs the sparse solve of the system assembled in sc
// through the scratch workspace: CG from warm under ic, the ω-slice
// factorization every steady-state path (scalar, zoned, exact, batched)
// solves under (see factorSlice). A nil ic, a slice that does not factor,
// fails the solve; the point is then runaway.
//
//oftec:hotpath
func (m *Model) solveScratch(sc *evalScratch, ic *sparse.ICPreconditioner, warm []float64) ([]float64, sparse.Stats, error) {
	opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, X0: warm, Work: &sc.ws}
	return sparse.CGPrecond(sc.mat, sc.rhs, ic, opts)
}

// factorSlice factors the ω-slice of the system assembled in sc into
// sc.ic and returns it, or nil when the slice does not factor. The
// factor is the modified IC(0) factorization of the slice's canonical
// I_TEC = 0 matrix: every steady system at one ω agrees with that matrix
// on the sink plane, the trailing block past the network's prefix (the
// TEC and leakage terms sit on the planes below it, and only the sink
// plane sees ω), so the factorization finishes from the prefix with its
// trailing block loaded straight from sc's matrix. One factor serves
// every point of the slice, since the per-point systems differ only in a
// few TEC diagonal terms: it is slightly weaker at large currents, but
// the solve converges on the true residual of the patched matrix to the
// same tolerance either way. A failed prefix fails every slice.
//
//oftec:hotpath
func (m *Model) factorSlice(sc *evalScratch) *sparse.ICPreconditioner {
	if m.slicePre == nil || m.slicePre.FactorInto(&sc.ic, sc.mat) != nil {
		return nil
	}
	return &sc.ic
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
func (m *Model) assembleReference(omega float64, cur []float64, linearLeak bool, leakConst []float64) (*sparse.CSR, []float64, error) {
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
		iTEC := cur[i]
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
// Every point is memoized by its operating point (see memoKey), so a
// repeat under the same zoning returns the identical Result; every k = 1
// zoning shares the nil zoning's entries.
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
	sc := m.getScratch()
	defer m.putScratch(sc)
	return m.evaluateIn(sc, z, p, maxCur, warm), nil
}

// evaluateIn answers the validated point p under the resolved zoning z,
// whose largest zone current is maxCur, from the memo, or solves it in
// sc from warm (nil is a uniform ambient field) and memoizes the Result.
// It leaves sc.key holding p's memo key.
//
//oftec:hotpath
func (m *Model) evaluateIn(sc *evalScratch, z *Zoning, p Point, maxCur float64, warm []float64) *Result {
	key := sc.memoKey(z, true, p.Omega, p.Currents)
	if e, ok := m.loadMemo(key); ok {
		return e.res
	}
	sc.loadCurrents(z, p.Currents)
	m.assembleInto(sc, p.Omega, sc.cur, true, nil)
	if warm == nil {
		sparse.Fill(sc.warm, m.cfg.Ambient)
		warm = sc.warm
	}
	t, stats, err := m.solveScratch(sc, m.factorSlice(sc), warm)
	res := m.linearResult(p.Omega, maxCur, sc.cur, t, stats, err == nil)
	m.storeResult(key, res)
	return res
}

// zoningOr resolves a nil zoning, and any one-zone zoning, to the model's
// one-zone zoning, so every spelling of the paper's deployment shares one
// memo key.
func (m *Model) zoningOr(z *Zoning) *Zoning {
	if z == nil || z.numZones == 1 {
		return m.one
	}
	return z
}

// linearResult is the result tail of every linearized solve: a failed or
// non-physical solve, or a field past the runaway threshold, is runaway;
// anything else materializes the Result. cur is the per-cell current the
// system was assembled at and maxCur the largest of them.
func (m *Model) linearResult(omega, maxCur float64, cur, t []float64, stats sparse.Stats, solved bool) *Result {
	if !solved || !m.physical(t) {
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
	sc := m.getScratch()
	defer m.putScratch(sc)
	// Exact results key apart from the linearized ones at the same point:
	// same matrix, different fixed point.
	cur := [1]float64{iTEC}
	key := sc.memoKey(m.one, false, omega, cur[:])
	if e, ok := m.loadMemo(key); ok {
		return e.res, nil
	}

	// The system matrix, and its slice factorization, are hoisted out of
	// the fixed-point loop entirely. Keeping the Taylor leakage folded
	// into the matrix (exactly as in the linearized path — so matrix and
	// factor are Evaluate's at the same operating point) and iterating
	// only on the second-order Taylor
	// remainder  P0·e^{β(T−T0)} − (a(T−Tref)+b)  leaves a Picard map whose
	// slope is the remainder's derivative — near zero over the regression
	// range — instead of the full leakage slope. The fixed point is
	// unchanged (at convergence T = tChip and the a·(T−tChip) correction
	// vanishes); the contraction is much faster, and each refresh touches
	// only the n_chip RHS entries. Inner solves warm-start from the
	// previous iterate.
	sparse.Fill(sc.cur, iTEC)
	m.assembleInto(sc, omega, sc.cur, true, nil)
	nc := m.grids[planeChip].NumCells()
	for i := 0; i < nc; i++ {
		sc.chipRHS[i] = sc.rhs[m.node(planeChip, i)]
	}
	ic := m.factorSlice(sc)
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
		t, stats, solveErr = m.solveScratch(sc, ic, warm)
		if solveErr != nil || !m.physical(t) {
			res := m.runawayResult(omega, iTEC, stats)
			m.storeResult(key, res)
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
			m.storeResult(key, res)
			return res, nil
		}
		if maxDelta < 1e-4 {
			res := m.buildResult(omega, iTEC, sc.cur, t, stats, false)
			res.OuterIterations = outer + 1
			m.storeResult(key, res)
			return res, nil
		}
	}
	// No convergence within the budget: treat as runaway.
	res := m.runawayResult(omega, iTEC, stats)
	m.storeResult(key, res)
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
