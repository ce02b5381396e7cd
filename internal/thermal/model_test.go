package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"oftec/internal/coolant"
	"oftec/internal/material"
	"oftec/internal/power"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// testConfig returns the default configuration at a reduced resolution so
// the test suite stays fast; physics assertions are resolution-robust.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.ChipRes = 8
	cfg.SpreaderRes = 7
	cfg.SinkRes = 6
	cfg.PCBRes = 4
	return cfg
}

func uniformMap(cfg *Config, total float64) power.Map {
	m := make(power.Map)
	die := cfg.Floorplan.Width * cfg.Floorplan.Height
	for _, u := range cfg.Floorplan.Units() {
		m[u.Name] = total * u.Rect.Area() / die
	}
	return m
}

// benchMap is the named benchmark's dynamic power map on cfg's floorplan.
func benchMap(tb testing.TB, cfg Config, bench string) power.Map {
	tb.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	pm, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		tb.Fatal(err)
	}
	return pm
}

func benchModel(tb testing.TB, cfg Config, bench string) *Model {
	tb.Helper()
	m, err := NewModel(cfg, benchMap(tb, cfg, bench))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil floorplan", func(c *Config) { c.Floorplan = nil }},
		{"zero ambient", func(c *Config) { c.Ambient = 0 }},
		{"tmax below ambient", func(c *Config) { c.TMax = c.Ambient - 1 }},
		{"zero chip res", func(c *Config) { c.ChipRes = 0 }},
		{"bad layer", func(c *Config) { c.TIM1.Thickness = 0 }},
		{"bad tec", func(c *Config) { c.TEC.MaxCurrent = 0 }},
		{"unknown uncovered unit", func(c *Config) { c.TEC.Uncovered = []string{"nonesuch"} }},
		{"bad leakage", func(c *Config) { c.Leakage.NumSamples = 1 }},
		{"negative pcb path", func(c *Config) { c.PCBToAmbient = -1 }},
	}
	for _, m := range mutations {
		cfg := testConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
}

// TestConfigResolutionCap: every layer's grid resolution is accepted at
// MaxRes and rejected one cell above it, with an error naming the layer
// and the cap.
func TestConfigResolutionCap(t *testing.T) {
	layers := []struct {
		name string
		res  func(*Config) *int
	}{
		{"chip", func(c *Config) *int { return &c.ChipRes }},
		{"spreader", func(c *Config) *int { return &c.SpreaderRes }},
		{"sink", func(c *Config) *int { return &c.SinkRes }},
		{"pcb", func(c *Config) *int { return &c.PCBRes }},
	}
	for _, l := range layers {
		t.Run(l.name, func(t *testing.T) {
			cfg := testConfig()
			*l.res(&cfg) = MaxRes
			if err := cfg.Validate(); err != nil {
				t.Errorf("resolution %d rejected: %v", MaxRes, err)
			}
			*l.res(&cfg) = MaxRes + 1
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("resolution %d accepted", MaxRes+1)
			}
			if want := fmt.Sprintf("%s grid resolution %d exceeds the cap of %d", l.name, MaxRes+1, MaxRes); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		})
	}
}

func TestModelAssembly(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	// 9 planes: pcb 16, chip/tim1/cold/mid/hot 64 each, spreader/tim2 49,
	// sink 36.
	want := 16 + 5*64 + 2*49 + 36
	if m.NumNodes() != want {
		t.Errorf("NumNodes = %d, want %d", m.NumNodes(), want)
	}
	// TECs cover everything except the caches: with an 8×8 chip grid the
	// count must be below 64 but well above half.
	if n := m.NumTEC(); n <= 32 || n >= 64 {
		t.Errorf("NumTEC = %d, want in (32, 64)", n)
	}
	if m.ChipGrid() == nil {
		t.Error("ChipGrid is nil")
	}
	if m.TotalLeakageSlope() <= 0 {
		t.Error("leakage slope must be positive")
	}
}

func TestZeroPowerZeroLeakageGivesAmbient(t *testing.T) {
	cfg := testConfig()
	cfg.Leakage.P0Density = 0
	m, err := NewModel(cfg, uniformMap(&cfg, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate(units.RPMToRadPerSec(2000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runaway {
		t.Fatal("unexpected runaway with zero power")
	}
	for i, temp := range res.T {
		if math.Abs(temp-cfg.Ambient) > 1e-6 {
			t.Fatalf("node %d at %g K, want ambient %g", i, temp, cfg.Ambient)
		}
	}
	if res.PLeakage != 0 || res.PTEC != 0 {
		t.Errorf("PLeak=%g PTEC=%g, want 0", res.PLeakage, res.PTEC)
	}
}

// forEachCoolantModel runs f in one subtest per registered coolant and
// per benchmark (Basicmath, Quicksort), named coolant/benchmark, on
// testConfig re-actuated through that coolant, with a fixed-seed source
// for random operating points.
func forEachCoolantModel(t *testing.T, f func(t *testing.T, m *Model, rng *rand.Rand)) {
	for _, name := range coolant.Names() {
		spec, err := coolant.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range []string{"Basicmath", "Quicksort"} {
			t.Run(name+"/"+bench, func(t *testing.T) {
				cfg := testConfig()
				cfg.Coolant = spec
				f(t, benchModel(t, cfg, bench), rand.New(rand.NewSource(1)))
			})
		}
	}
}

// randomCommand draws an actuator command from 5–100% of m's UMax.
func randomCommand(rng *rand.Rand, m *Model) float64 {
	return m.UMax() * (0.05 + 0.95*rng.Float64())
}

// randomCurrent draws a TEC current from [0, I_max].
func randomCurrent(rng *rand.Rand, m *Model) float64 {
	return m.Config().TEC.MaxCurrent * rng.Float64()
}

// TestCoolantEnergyBalance: under every coolant, at random operating
// points, the heat leaving the package balances the heat generated in it
// to 1e-4 of the total. Points that run away have no steady state and
// are skipped.
func TestCoolantEnergyBalance(t *testing.T) {
	forEachCoolantModel(t, func(t *testing.T, m *Model, rng *rand.Rand) {
		balanced := 0
		for i := 0; i < 40; i++ {
			u, itec := randomCommand(rng, m), randomCurrent(rng, m)
			res, err := m.Evaluate(u, itec)
			if err != nil {
				t.Fatalf("Evaluate(%g, %g): %v", u, itec, err)
			}
			if res.Runaway {
				continue
			}
			bal, err := m.EnergyBalance(res)
			if err != nil {
				t.Fatal(err)
			}
			total := res.PDynamic + res.PLeakage + res.PTEC
			if math.Abs(bal) > 1e-4*total {
				t.Errorf("(u=%g, I=%g): energy imbalance %g W of %g W total", u, itec, bal, total)
			}
			balanced++
		}
		if balanced == 0 {
			t.Fatal("every point ran away")
		}
	})
}

// TestCoolantCommandMonotonicity: under every coolant, raising the
// actuator command at a fixed TEC current never raises the maximum chip
// temperature, on random pairs of commands. A pair fails if the higher
// command runs away and the lower one does not; other pairs with a
// runaway end are skipped.
func TestCoolantCommandMonotonicity(t *testing.T) {
	forEachCoolantModel(t, func(t *testing.T, m *Model, rng *rand.Rand) {
		compared := 0
		for i := 0; i < 40; i++ {
			uLo, uHi, itec := randomCommand(rng, m), randomCommand(rng, m), randomCurrent(rng, m)
			if uHi < uLo {
				uLo, uHi = uHi, uLo
			}
			lo, err := m.Evaluate(uLo, itec)
			if err != nil {
				t.Fatal(err)
			}
			hi, err := m.Evaluate(uHi, itec)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case hi.Runaway && !lo.Runaway:
				t.Errorf("I=%g: runaway at u=%g but not at u=%g", itec, uHi, uLo)
			case lo.Runaway || hi.Runaway:
				continue
			case hi.MaxChipTemp > lo.MaxChipTemp+units.EpsTemp:
				t.Errorf("I=%g: Tmax rose with the command: %g K at u=%g, %g K at u=%g",
					itec, lo.MaxChipTemp, uLo, hi.MaxChipTemp, uHi)
			}
			compared++
		}
		if compared == 0 {
			t.Fatal("every pair ran away")
		}
	})
}

func TestDynamicPowerMonotonicity(t *testing.T) {
	cfg := testConfig()
	m, err := NewModel(cfg, uniformMap(&cfg, 10))
	if err != nil {
		t.Fatal(err)
	}
	omega := units.RPMToRadPerSec(2000)
	r10, err := m.Evaluate(omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDynamicPower(uniformMap(&cfg, 30)); err != nil {
		t.Fatal(err)
	}
	r30, err := m.Evaluate(omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r30.MaxChipTemp <= r10.MaxChipTemp {
		t.Errorf("tripling power did not raise Tmax: %g vs %g", r30.MaxChipTemp, r10.MaxChipTemp)
	}
	if r30.PDynamic != 30 {
		t.Errorf("PDynamic = %g, want 30", r30.PDynamic)
	}
}

func TestTECCoolsHotspot(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Quicksort")
	omega := units.RPMToRadPerSec(2500)
	r0, err := m.Evaluate(omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Evaluate(omega, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MaxChipTemp >= r0.MaxChipTemp-1 {
		t.Errorf("I=2 A should cool the hotspot by >1 K: %g vs %g",
			r2.MaxChipTemp, r0.MaxChipTemp)
	}
	if r2.PTEC <= 0 {
		t.Errorf("PTEC = %g at I=2, want positive", r2.PTEC)
	}
	// Joule-dominated regime: far past the optimum, extra current heats
	// rather than cools (the model itself has no current clamp; the
	// damage threshold I_TEC,max is enforced by the optimizer's bounds).
	r8, err := m.Evaluate(omega, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r8.MaxChipTemp <= r2.MaxChipTemp {
		t.Errorf("I=8 A should be worse than I=2 A: %g vs %g", r8.MaxChipTemp, r2.MaxChipTemp)
	}
}

func TestThermalRunawayAtZeroFan(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	for _, i := range []float64{0, 2.5, 5} {
		res, err := m.Evaluate(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Runaway {
			t.Errorf("I=%g: expected runaway at ω=0 (Figure 6(a)), got Tmax=%g", i, res.MaxChipTemp)
		}
		if !math.IsInf(res.MaxChipTemp, 1) || !math.IsInf(res.PLeakage, 1) {
			t.Errorf("runaway result should have infinite 𝒯 and P_leakage")
		}
		if res.MeetsConstraint(cfg.TMax) {
			t.Error("runaway result claims to meet the constraint")
		}
	}
}

func TestExactLeakageAgreesWithLinearizedNearTref(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	omega := units.RPMToRadPerSec(2000)
	lin, err := m.Evaluate(omega, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.EvaluateExact(omega, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Runaway {
		t.Fatal("exact evaluation ran away unexpectedly")
	}
	if exact.OuterIterations < 2 {
		t.Errorf("exact evaluation converged suspiciously fast (%d iterations)", exact.OuterIterations)
	}
	// Basicmath runs ~25 K below Tref+30, where the Taylor line deviates
	// by design; 3 K agreement confirms the linearization is wired right.
	if d := math.Abs(lin.MaxChipTemp - exact.MaxChipTemp); d > 3 {
		t.Errorf("linearized vs exact Tmax differ by %g K", d)
	}
}

func TestExactLeakageDetectsRunaway(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Quicksort")
	res, err := m.EvaluateExact(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Runaway {
		t.Errorf("exact model should run away at ω=0, got Tmax=%g", res.MaxChipTemp)
	}
}

func TestOperatingPointValidation(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "CRC32")
	if _, err := m.Evaluate(-1, 0); err == nil {
		t.Error("negative fan speed accepted")
	}
	if _, err := m.Evaluate(0, -1); err == nil {
		t.Error("negative TEC current accepted")
	}
	if _, err := m.Evaluate(math.NaN(), 0); err == nil {
		t.Error("NaN operating point accepted")
	}
}

func TestPlaneTempsAndHottestUnit(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Quicksort")
	res, err := m.Evaluate(units.RPMToRadPerSec(3000), 1)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := m.PlaneTemps(res, "chip")
	if err != nil {
		t.Fatal(err)
	}
	if len(chip) != cfg.ChipRes*cfg.ChipRes {
		t.Errorf("chip plane has %d cells", len(chip))
	}
	sink, err := m.PlaneTemps(res, "sink")
	if err != nil {
		t.Fatal(err)
	}
	// The sink must be cooler than the hottest chip cell and warmer than
	// ambient.
	var sinkMax float64
	for _, temp := range sink {
		sinkMax = math.Max(sinkMax, temp)
	}
	if sinkMax >= res.MaxChipTemp {
		t.Errorf("sink (%g) hotter than chip (%g)", sinkMax, res.MaxChipTemp)
	}
	if sinkMax <= cfg.Ambient {
		t.Errorf("sink (%g) not above ambient (%g)", sinkMax, cfg.Ambient)
	}
	if _, err := m.PlaneTemps(res, "nonesuch"); err == nil {
		t.Error("unknown plane accepted")
	}
	// Quicksort's hotspot is in the integer cluster.
	unit, err := m.HottestUnit(res)
	if err != nil {
		t.Fatal(err)
	}
	if unit != "IntExec" && unit != "IntReg" {
		t.Errorf("hottest unit %s, want IntExec or IntReg", unit)
	}
}

func TestResolutionRobustness(t *testing.T) {
	coarse := testConfig()
	fine := testConfig()
	fine.ChipRes = 16
	fine.SpreaderRes = 12
	fine.SinkRes = 10

	omega := units.RPMToRadPerSec(2500)
	mc := benchModel(t, coarse, "FFT")
	mf := benchModel(t, fine, "FFT")
	rc, err := mc.Evaluate(omega, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := mf.Evaluate(omega, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(rc.MaxChipTemp - rf.MaxChipTemp); d > 3 {
		t.Errorf("Tmax differs by %g K between resolutions (%g vs %g)",
			d, rc.MaxChipTemp, rf.MaxChipTemp)
	}
	if d := math.Abs(rc.CoolingPower() - rf.CoolingPower()); d > 1.5 {
		t.Errorf("𝒫 differs by %g W between resolutions", d)
	}
}

func TestMirrorSymmetryUnderUniformPower(t *testing.T) {
	// With uniform power and full TEC coverage the assembly is left-right
	// symmetric, so the temperature field must be too. This catches
	// assembly indexing errors.
	cfg := testConfig()
	cfg.TEC.Uncovered = nil
	m, err := NewModel(cfg, uniformMap(&cfg, 30))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate(units.RPMToRadPerSec(2000), 2)
	if err != nil {
		t.Fatal(err)
	}
	g := m.ChipGrid()
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols/2; c++ {
			a := res.ChipTemps[g.Index(r, c)]
			b := res.ChipTemps[g.Index(r, g.Cols-1-c)]
			if math.Abs(a-b) > 1e-6 {
				t.Fatalf("asymmetry at row %d: %g vs %g", r, a, b)
			}
		}
	}
}

func TestPeltierTermSignConvention(t *testing.T) {
	// With current flowing, the absorption plane must be colder than the
	// rejection plane above the hotspot: the TEC pumps heat upward.
	cfg := testConfig()
	m := benchModel(t, cfg, "Quicksort")
	res, err := m.Evaluate(units.RPMToRadPerSec(3000), 3)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.PlaneTemps(res, "tec_abs")
	if err != nil {
		t.Fatal(err)
	}
	hot, err := m.PlaneTemps(res, "tec_rej")
	if err != nil {
		t.Fatal(err)
	}
	var meanDT float64
	for i := range cold {
		meanDT += hot[i] - cold[i]
	}
	meanDT /= float64(len(cold))
	if meanDT <= 0 {
		t.Errorf("mean TEC ΔT = %g, want positive (hot side above cold side)", meanDT)
	}
}

func TestRunawayResultString(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	res, err := m.Evaluate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); s == "" {
		t.Error("empty String()")
	}
	if _, err := m.EnergyBalance(res); err == nil {
		t.Error("EnergyBalance on runaway result should error")
	}
	if _, err := m.HottestUnit(res); err == nil {
		t.Error("HottestUnit on runaway result should error")
	}
	if _, err := m.PlaneTemps(res, "chip"); err == nil {
		t.Error("PlaneTemps on runaway result should error")
	}
}

func TestBaselineFairnessAdjustment(t *testing.T) {
	// The baselines keep the TEC stack's conduction with I = 0: passive
	// TECs must conduct better than replacing the whole TEC layer with
	// plain TIM paste (the paper's justification in Section 6.1).
	cfg := testConfig()
	m := benchModel(t, cfg, "Quicksort")
	passive, err := m.Evaluate(units.RPMToRadPerSec(2000), 0)
	if err != nil {
		t.Fatal(err)
	}

	paste := testConfig()
	paste.TEC.ConductancePerArea = material.TIM.Conductivity / paste.TEC.Thickness
	mp := benchModel(t, paste, "Quicksort")
	pasteRes, err := mp.Evaluate(units.RPMToRadPerSec(2000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if passive.MaxChipTemp >= pasteRes.MaxChipTemp {
		t.Errorf("passive TEC stack (%g K) should conduct better than paste (%g K)",
			passive.MaxChipTemp, pasteRes.MaxChipTemp)
	}
}
