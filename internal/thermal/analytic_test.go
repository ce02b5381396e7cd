package thermal

import (
	"math"
	"testing"

	"oftec/internal/floorplan"
	"oftec/internal/power"
	"oftec/internal/units"
)

// TestAnalyticSeriesStack validates the network assembly against a
// closed-form solution. With every grid at 1×1 resolution, all layers
// sharing the same footprint, leakage disabled, the PCB path removed, and
// I_TEC = 0, the model degenerates to a pure series resistance chain:
//
//	T_chip − T_amb = P · (R_chip/2 + R_TIM1 + R_TEC + R_spr + R_TIM2
//	                       + R_sink/2 + 1/g_HS&fan(ω))
//
// where each R = t/(k·A); the chip contributes half its own vertical
// resistance (heat is generated at the cell center) and the sink likewise
// half, because the convection conductance g attaches at the sink node
// (HotSpot's convention, which the assembly follows).
func TestAnalyticSeriesStack(t *testing.T) {
	edge := 0.01 // uniform 10 mm × 10 mm stack
	fp, err := floorplan.New(edge, edge)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.AddUnit("all", floorplan.Rect{W: edge, H: edge}); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Floorplan = fp
	cfg.ChipRes, cfg.SpreaderRes, cfg.SinkRes, cfg.PCBRes = 1, 1, 1, 1
	for _, spec := range []*LayerSpec{&cfg.PCB, &cfg.Chip, &cfg.TIM1, &cfg.Spreader, &cfg.TIM2, &cfg.Sink} {
		spec.Edge = edge
	}
	cfg.Leakage.P0Density = 0
	cfg.PCBToAmbient = 0
	cfg.TEC.Uncovered = nil

	const watts = 10.0
	m, err := NewModel(cfg, power.Map{"all": watts})
	if err != nil {
		t.Fatal(err)
	}

	omega := units.RPMToRadPerSec(3000)
	res, err := m.Evaluate(omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runaway {
		t.Fatal("unexpected runaway")
	}

	act, err := cfg.Actuator()
	if err != nil {
		t.Fatal(err)
	}
	gSink := act.Conductance(omega)
	area := edge * edge
	r := func(thick, k float64) float64 { return thick / (k * area) }
	// The TEC layer at I = 0 conducts with K_TEC per area (abs–gen–rej in
	// series: 2K and 2K give K).
	rTEC := 1 / (cfg.TEC.ConductancePerArea * area)
	analytic := cfg.Ambient + watts*(r(cfg.Chip.Thickness, cfg.Chip.Material.Conductivity)/2+
		r(cfg.TIM1.Thickness, cfg.TIM1.Material.Conductivity)+
		rTEC+
		r(cfg.Spreader.Thickness, cfg.Spreader.Material.Conductivity)+
		r(cfg.TIM2.Thickness, cfg.TIM2.Material.Conductivity)+
		r(cfg.Sink.Thickness, cfg.Sink.Material.Conductivity)/2+
		1/gSink)

	if d := math.Abs(res.MaxChipTemp - analytic); d > 1e-6 {
		t.Errorf("chip temperature %0.9f K, analytic %0.9f K (Δ %g)",
			res.MaxChipTemp, analytic, d)
	}

	// The sink node must likewise match T_amb + P/g exactly.
	sink, err := m.PlaneTemps(res, "sink")
	if err != nil {
		t.Fatal(err)
	}
	wantSinkCenter := cfg.Ambient + watts/gSink
	if d := math.Abs(sink[0] - wantSinkCenter); d > 1e-6 {
		t.Errorf("sink temperature %g K, analytic %g K", sink[0], wantSinkCenter)
	}
}

// TestSuperpositionWithoutLeakage checks linearity: with leakage disabled
// and I_TEC = 0 the steady state is linear in the injected power, so the
// temperature-rise field of a summed workload equals the sum of the
// individual rise fields.
func TestSuperpositionWithoutLeakage(t *testing.T) {
	cfg := testConfig()
	cfg.Leakage.P0Density = 0

	mapA := uniformMap(&cfg, 12)
	b, err := NewModel(cfg, mapA)
	if err != nil {
		t.Fatal(err)
	}
	omega := units.RPMToRadPerSec(2500)

	mapB := make(power.Map)
	for _, u := range cfg.Floorplan.Units() {
		mapB[u.Name] = 0
	}
	mapB["IntExec"] = 9

	rise := func(m power.Map) []float64 {
		if err := b.SetDynamicPower(m); err != nil {
			t.Fatal(err)
		}
		res, err := b.Evaluate(omega, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res.T))
		for i, temp := range res.T {
			out[i] = temp - cfg.Ambient
		}
		return out
	}

	sum := make(power.Map)
	for k, v := range mapA {
		sum[k] = v + mapB[k]
	}
	ra := rise(mapA)
	rb := rise(mapB)
	rs := rise(sum)
	for i := range rs {
		if d := math.Abs(rs[i] - (ra[i] + rb[i])); d > 1e-6 {
			t.Fatalf("superposition violated at node %d: %g vs %g+%g", i, rs[i], ra[i], rb[i])
		}
	}

	// Scaling: doubling the power doubles the rise.
	r2 := rise(mapA.Scale(2))
	for i := range r2 {
		if d := math.Abs(r2[i] - 2*ra[i]); d > 1e-6 {
			t.Fatalf("homogeneity violated at node %d: %g vs 2·%g", i, r2[i], ra[i])
		}
	}
}

// TestPeltierAntisymmetry checks the first-order behaviour of the Peltier
// terms: for small currents the temperature shift is odd in I (the Joule
// term is second order), so ΔT(+I) ≈ −ΔT(−I)... since the model forbids
// negative currents, the equivalent check is that the first-order response
// dominates: T(0) − T(ε) scales linearly with ε for small ε.
func TestPeltierFirstOrderResponse(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Quicksort")
	omega := units.RPMToRadPerSec(3000)
	r0, err := m.Evaluate(omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m.Evaluate(omega, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Evaluate(omega, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	d1 := r0.MaxChipTemp - r1.MaxChipTemp
	d2 := r0.MaxChipTemp - r2.MaxChipTemp
	if d1 <= 0 {
		t.Fatalf("small current did not cool: Δ = %g", d1)
	}
	// Doubling a small current should roughly double the cooling.
	if ratio := d2 / d1; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("first-order response ratio %g, want ≈ 2", ratio)
	}
}

// TestReciprocity checks the symmetry of the conduction network: with
// leakage disabled and I_TEC = 0, injecting 1 W into cell i and reading
// the temperature rise at cell j gives the same answer as injecting at j
// and reading at i (the thermal resistance matrix is symmetric because G
// is). This is a strong whole-assembly check of the coupling code.
func TestReciprocity(t *testing.T) {
	cfg := testConfig()
	cfg.Leakage.P0Density = 0

	fp := cfg.Floorplan
	unitA, unitB := "IntExec", "Dcache"
	inject := func(unit string) power.Map {
		m := make(power.Map)
		for _, u := range fp.Units() {
			m[u.Name] = 0
		}
		m[unit] = 1
		return m
	}
	model, err := NewModel(cfg, inject(unitA))
	if err != nil {
		t.Fatal(err)
	}
	omega := units.RPMToRadPerSec(2000)

	// The reciprocal pair is ⟨w_B, R·w_A⟩ vs ⟨w_A, R·w_B⟩ with w the
	// overlap-weighted injection profile, so the readout must use the same
	// overlap weights as the injection.
	riseAt := func(unit string) float64 {
		res, err := model.Evaluate(omega, 0)
		if err != nil {
			t.Fatal(err)
		}
		u, _ := fp.Unit(unit)
		g := model.ChipGrid()
		var sum, wsum float64
		for _, idx := range g.CellsIntersecting(u.Rect) {
			w := g.OverlapFraction(idx, u.Rect)
			sum += w * (res.ChipTemps[idx] - cfg.Ambient)
			wsum += w
		}
		return sum / wsum
	}

	tAB := riseAt(unitB) // source at A, read at B
	if err := model.SetDynamicPower(inject(unitB)); err != nil {
		t.Fatal(err)
	}
	tBA := riseAt(unitA) // source at B, read at A
	if math.Abs(tAB-tBA) > 1e-6*(1+math.Abs(tAB)) {
		t.Errorf("reciprocity violated: %.9g vs %.9g", tAB, tBA)
	}
	if tAB <= 0 {
		t.Errorf("cross-coupling rise %g should be positive", tAB)
	}
}
