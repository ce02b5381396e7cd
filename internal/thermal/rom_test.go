package thermal

import (
	"math"
	"reflect"
	"testing"

	"oftec/internal/power"
	"oftec/internal/workload"
)

func buildROM(t *testing.T, bench string) (*Model, *ReducedModel) {
	t.Helper()
	m := benchModel(t, testConfig(), bench)
	rm, err := NewReducedModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, rm
}

// serialROMReference builds m's ROM the plain way: serially, from
// per-point EvaluateWarm solves over the ROM's grids with the in-group
// carry (each ω-group's first point from ambient, the rest from its
// solution), and the dynamic-power sensitivities one after another.
func serialROMReference(t *testing.T, m *Model) *ReducedModel {
	t.Helper()
	omegaMax, iMax := m.UMax(), m.cfg.TEC.MaxCurrent
	solve := func(groups [][]Point) [][]*Result {
		out := make([][]*Result, len(groups))
		for g, group := range groups {
			var seed []float64
			for k, p := range group {
				res, err := m.EvaluateWarm(nil, p, seed)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 && !res.Runaway {
					seed = res.T
				}
				out[g] = append(out[g], res)
			}
		}
		return out
	}
	r, err := newROMBase(m)
	if err != nil {
		t.Fatal(err)
	}
	snapGroups := romSnapshotGrid(omegaMax, iMax)
	snaps, floor := romSnapshots(snapGroups, solve(snapGroups))
	for _, omega := range romDynOmegas(floor, omegaMax) {
		if x, err := r.dynSensitivity(omega); err == nil {
			snaps = append(snaps, x)
		}
	}
	valGroups := romValidationGrid(floor, omegaMax, iMax)
	if err := r.fit(floor, snaps, valGroups, solve(valGroups)); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestROMBuildMatchesSerialReference pins the ROM's construction: at
// oftecd's default resolution NewReducedModel, whose ω-groups fan out
// and whose narrow chunks solve per point, builds bitwise the ROM that
// serialROMReference builds on a fresh model (so no memo entry is
// shared): basis, projected operators and RHS parts, bound, κ and ω
// floor. Its answers on a fixed point set, declines included, are
// DeepEqual.
func TestROMBuildMatchesSerialReference(t *testing.T) {
	for _, bench := range []string{"Basicmath", "CRC32"} {
		t.Run(bench, func(t *testing.T) {
			m, got := buildROM(t, bench)
			want := serialROMReference(t, benchModel(t, m.Config(), bench))
			if got.rank != want.rank {
				t.Fatalf("rank %d, reference %d", got.rank, want.rank)
			}
			for _, c := range []struct {
				name      string
				got, want [][]float64
			}{
				{"basis", got.basis, want.basis},
				{"VᵀA₀V", got.ar0, want.ar0},
				{"VᵀD_sV", got.ds, want.ds},
				{"VᵀD_pV", got.dp, want.dp},
				{"Vᵀb_s, Vᵀb_j, Vᵀb₀", [][]float64{got.bs, got.bj, got.br0}, [][]float64{want.bs, want.bj, want.br0}},
				{"bound, κ, ω floor", [][]float64{{got.bound, got.kappa, got.omegaFloor}}, [][]float64{{want.bound, want.kappa, want.omegaFloor}}},
			} {
				for i := range c.want {
					if !sameBits(c.got[i], c.want[i]) {
						t.Errorf("%s: row %d differs from the serial per-point reference", c.name, i)
					}
				}
			}
			cfg := m.Config()
			answered := 0
			for _, omega := range []float64{got.omegaFloor / 2, got.omegaFloor, 0.37 * cfg.Fan.OmegaMax, 0.81 * cfg.Fan.OmegaMax, cfg.Fan.OmegaMax} {
				for _, itec := range []float64{0, 0.29 * cfg.TEC.MaxCurrent, 0.77 * cfg.TEC.MaxCurrent, cfg.TEC.MaxCurrent} {
					g, gok, gerr := got.Evaluate(omega, itec)
					w, wok, werr := want.Evaluate(omega, itec)
					if gerr != nil || werr != nil || gok != wok || !reflect.DeepEqual(g, w) {
						t.Errorf("(ω=%g, I=%g): ROM answers (ok %v, err %v) %+v, reference (ok %v, err %v) %+v", omega, itec, gok, gerr, g, wok, werr, w)
					}
					if gok {
						answered++
					}
				}
			}
			if answered < 10 {
				t.Errorf("the ROM answered %d of the 20 points: too few to compare answers", answered)
			}
		})
	}
}

// TestROMWithinAdvertisedBound is the fidelity property test: over a grid
// of operating points that is neither the snapshot nor the validation
// grid, every point the ROM accepts must reproduce the full chip-layer
// field to within the advertised error bound.
func TestROMWithinAdvertisedBound(t *testing.T) {
	m, rm := buildROM(t, "Basicmath")
	cfg := m.Config()
	if rm.Rank() == 0 {
		t.Fatal("empty basis")
	}
	bound := rm.ErrorBound()
	if bound <= 0 || math.IsInf(bound, 0) {
		t.Fatalf("unusable advertised bound %g", bound)
	}

	accepted, tested := 0, 0
	const nOmega, nI = 7, 5
	for io := 0; io < nOmega; io++ {
		omega := rm.OmegaFloor() + (cfg.Fan.OmegaMax-rm.OmegaFloor())*(float64(io)+0.37)/nOmega
		for ic := 0; ic < nI; ic++ {
			itec := cfg.TEC.MaxCurrent * (float64(ic) + 0.61) / nI
			tested++
			rom, ok, err := rm.Evaluate(omega, itec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			accepted++
			full, err := m.Evaluate(omega, itec)
			if err != nil {
				t.Fatal(err)
			}
			if full.Runaway {
				t.Fatalf("ROM accepted (ω=%g, I=%g) but the full model runs away", omega, itec)
			}
			var errInf float64
			for i, ti := range rom.ChipTemps {
				if d := math.Abs(ti - full.ChipTemps[i]); d > errInf {
					errInf = d
				}
			}
			if errInf > bound+1e-9 {
				t.Errorf("(ω=%g, I=%g): chip-layer error %g K exceeds advertised bound %g K",
					omega, itec, errInf, bound)
			}
			if d := math.Abs(rom.MaxChipTemp - full.MaxChipTemp); d > bound+1e-9 {
				t.Errorf("(ω=%g, I=%g): MaxChipTemp error %g K exceeds bound %g K", omega, itec, d, bound)
			}
		}
	}
	// The property is vacuous if the ROM rejects everything; the grid sits
	// inside the snapshot hull, so most points must be served reduced.
	if accepted < tested/2 {
		t.Fatalf("ROM accepted only %d/%d in-hull points", accepted, tested)
	}
	stats := rm.Stats()
	if stats.Evaluations != int64(tested) {
		t.Errorf("Evaluations = %d, want %d", stats.Evaluations, tested)
	}
	if stats.Rejections != int64(tested-accepted) {
		t.Errorf("Rejections = %d, want %d", stats.Rejections, tested-accepted)
	}
}

// TestROMDeclineCauses drives Evaluate into each of its four decline
// branches once, at a point it otherwise accepts, and checks that exactly
// one cause counter moves each time and that Rejections stays their sum.
// Each branch is reached by corrupting one calibration field for the one
// call: the ω floor raised above the point, the projected operators
// zeroed (a singular reduced system), κ inflated past any residual, and
// the runaway wall lowered below the point's peak temperature.
func TestROMDeclineCauses(t *testing.T) {
	m, rm := buildROM(t, "Basicmath")
	cfg := m.Config()
	omega := (rm.OmegaFloor() + cfg.Fan.OmegaMax) / 2
	itec := cfg.TEC.MaxCurrent / 2
	zero := make([][]float64, rm.rank)
	for i := range zero {
		zero[i] = make([]float64, rm.rank)
	}
	causes := []struct {
		name    string
		count   func(ROMStats) int64
		corrupt func() (restore func())
	}{
		{"floor", func(s ROMStats) int64 { return s.DeclinedFloor }, func() func() {
			floor := rm.omegaFloor
			rm.omegaFloor = 2 * omega
			return func() { rm.omegaFloor = floor }
		}},
		{"degenerate", func(s ROMStats) int64 { return s.DeclinedDegenerate }, func() func() {
			ar0, ds, dp := rm.ar0, rm.ds, rm.dp
			rm.ar0, rm.ds, rm.dp = zero, zero, zero
			return func() { rm.ar0, rm.ds, rm.dp = ar0, ds, dp }
		}},
		{"residual", func(s ROMStats) int64 { return s.DeclinedResidual }, func() func() {
			kappa := rm.kappa
			rm.kappa = 1e300
			return func() { rm.kappa = kappa }
		}},
		{"runaway", func(s ROMStats) int64 { return s.DeclinedRunaway }, func() func() {
			wall := rm.runawayT
			rm.runawayT = 0
			return func() { rm.runawayT = wall }
		}},
	}
	evaluate := func() bool {
		t.Helper()
		_, ok, err := rm.Evaluate(omega, itec)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !evaluate() {
		t.Fatalf("ROM declines the uncorrupted point (ω=%g, I=%g)", omega, itec)
	}
	for _, c := range causes {
		before := rm.Stats()
		restore := c.corrupt()
		ok := evaluate()
		restore()
		after := rm.Stats()
		if ok {
			t.Errorf("%s: the corrupted ROM accepted the point", c.name)
		}
		for _, o := range causes {
			want := o.count(before)
			if o.name == c.name {
				want++
			}
			if got := o.count(after); got != want {
				t.Errorf("%s decline: %s counter %d, want %d", c.name, o.name, got, want)
			}
		}
		if after.Rejections != before.Rejections+1 || after.Evaluations != before.Evaluations+1 {
			t.Errorf("%s decline: %d rejections of %d evaluations, want %d of %d", c.name,
				after.Rejections, after.Evaluations, before.Rejections+1, before.Evaluations+1)
		}
	}
	if !evaluate() {
		t.Error("ROM declines the point after every corruption was undone")
	}
	s := rm.Stats()
	if sum := s.DeclinedFloor + s.DeclinedDegenerate + s.DeclinedResidual + s.DeclinedRunaway; s.Rejections != sum || sum != int64(len(causes)) {
		t.Errorf("Rejections %d, causes sum to %d, want both %d", s.Rejections, sum, len(causes))
	}
}

// TestROMRunawayRejects pins the fall-through contract at the runaway
// wall: a near-zero fan speed (below the snapshot floor, and in thermal
// runaway on the full model) must be declined, never answered.
func TestROMRunawayRejects(t *testing.T) {
	m, rm := buildROM(t, "Quicksort")
	omega := rm.OmegaFloor() / 50
	full, err := m.Evaluate(omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Runaway {
		t.Skipf("full model does not run away at ω=%g; floor %g", omega, rm.OmegaFloor())
	}
	res, ok, err := rm.Evaluate(omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("ROM accepted a runaway point: %+v", res)
	}
	if rm.Stats().Rejections == 0 {
		t.Error("rejection not counted")
	}
	if _, _, err := rm.Evaluate(-1, 0); err == nil {
		t.Error("invalid operating point accepted")
	}
}

// TestROMTracksDynamicPower: after SetDynamicPower the ROM must refresh
// its projected RHS and track the full model at the new workload without
// rebuilding the basis.
func TestROMTracksDynamicPower(t *testing.T) {
	cfg := testConfig()
	b, err := workload.ByName("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewReducedModel(m)
	if err != nil {
		t.Fatal(err)
	}
	omega, itec := 0.6*cfg.Fan.OmegaMax, 0.4*cfg.TEC.MaxCurrent

	before, ok, err := rm.Evaluate(omega, itec)
	if err != nil || !ok {
		t.Fatalf("pre-change evaluation declined (ok=%v, err=%v)", ok, err)
	}

	// Same spatial shape, lower level — the DVFS/online-control pattern
	// the lazy refresh exists for.
	scaled := make(power.Map, len(pm))
	for name, p := range pm {
		scaled[name] = 0.8 * p
	}
	if err := m.SetDynamicPower(scaled); err != nil {
		t.Fatal(err)
	}
	after, ok, err := rm.Evaluate(omega, itec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ROM declined after a benign power rescale")
	}
	if rm.Stats().DynRefreshes != 1 {
		t.Errorf("DynRefreshes = %d, want 1", rm.Stats().DynRefreshes)
	}
	if after.MaxChipTemp >= before.MaxChipTemp {
		t.Errorf("cooler workload did not lower MaxChipTemp: %g → %g", before.MaxChipTemp, after.MaxChipTemp)
	}
	full, err := m.Evaluate(omega, itec)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(after.MaxChipTemp - full.MaxChipTemp); d > rm.ErrorBound()+1e-9 {
		t.Errorf("post-refresh error %g K exceeds bound %g K", d, rm.ErrorBound())
	}
}
