package thermal

import (
	"math"
	"reflect"
	"testing"

	"oftec/internal/coolant"
)

// liquidConfig is testConfig re-actuated through the coolant seam with
// the default liquid loop.
func liquidConfig() Config {
	cfg := testConfig()
	cfg.Coolant = &coolant.Spec{Kind: coolant.KindLiquid}
	return cfg
}

// TestAirSpecBitIdenticalToNilCoolant: an explicit "air" coolant spec and
// the nil (pre-seam) configuration must produce DeepEqual results and
// gradients — the spec resolution layer adds exactly nothing.
func TestAirSpecBitIdenticalToNilCoolant(t *testing.T) {
	nilModel := benchModel(t, testConfig(), "Basicmath")
	airCfg := testConfig()
	airCfg.Coolant = &coolant.Spec{Kind: coolant.KindAir}
	airModel := benchModel(t, airCfg, "Basicmath")

	for _, pt := range []struct{ omega, itec float64 }{
		{0, 0}, {120, 0.4}, {250, 1.0}, {524, 5},
	} {
		ra, err := nilModel.Evaluate(pt.omega, pt.itec)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := airModel.Evaluate(pt.omega, pt.itec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("(ω=%g, I=%g): air-spec result differs from nil-coolant result", pt.omega, pt.itec)
		}
		if ra.Runaway {
			continue
		}
		ga, err := nilModel.EvaluateGrad(nil, opPoint(pt.omega, pt.itec))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := airModel.EvaluateGrad(nil, opPoint(pt.omega, pt.itec))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ga.PowerGrad, gb.PowerGrad) || !reflect.DeepEqual(ga.TempGrad, gb.TempGrad) {
			t.Errorf("(ω=%g, I=%g): air-spec gradients differ from nil-coolant gradients", pt.omega, pt.itec)
		}
	}
}

// TestLiquidEvaluatePhysics: under the liquid actuator the reported drive
// power must follow the pump affinity law and the energy balance must
// close — the seam carries the new physics end to end, not just g(u).
func TestLiquidEvaluatePhysics(t *testing.T) {
	cfg := liquidConfig()
	m := benchModel(t, cfg, "Basicmath")
	loop := coolant.PaperLoop()
	if m.UMax() != loop.MaxSpeed {
		t.Fatalf("UMax %g, want the pump ceiling %g", m.UMax(), loop.MaxSpeed)
	}
	res, err := m.Evaluate(200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runaway {
		t.Fatal("liquid loop at u=200 should not run away")
	}
	if want := loop.Power(200); res.PFan != want {
		t.Errorf("drive power %g, want pump affinity %g", res.PFan, want)
	}
	imb, err := m.EnergyBalance(res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imb) > 1e-6*res.CoolingPower() {
		t.Errorf("energy imbalance %g W under liquid actuator", imb)
	}
}

// TestLiquidAdjointMatchesCentralDiff is the liquid half of the gradient
// acceptance bar: the adjoint gradients under the liquid actuator must
// match Richardson-extrapolated central differences to 1e-5 relative
// error, on interior points, on the GMin-saturated branch (where the
// conductance derivative is exactly zero and only the pump term remains),
// and at an interior point of the liquid-dc (facility meter) and
// liquid-package (cold-plate share) variants.
func TestLiquidAdjointMatchesCentralDiff(t *testing.T) {
	cfg := liquidConfig()
	m := benchModel(t, cfg, "Basicmath")
	variant := func(name string) *Model {
		spec, err := coolant.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Coolant = spec
		return benchModel(t, cfg, "Basicmath")
	}
	nc := m.ChipGrid().NumCells()
	tau := SmoothMaxTau(nc, DefaultSmoothBound)
	knee := coolant.PaperLoop().CrossoverU()

	// The default loop's stopped floor (g_HS-matched, 0.525 W/K) runs
	// away under Basicmath — faithfully reproducing the paper's
	// no-forced-convection runaway — so the saturated branch is probed
	// on a loop with a taller floor that keeps the steady state finite.
	satLoop := coolant.PaperLoop()
	satLoop.GMin = 2.0
	satCfg := testConfig()
	satCfg.Coolant = &coolant.Spec{Kind: coolant.KindLiquid, Liquid: &satLoop}
	mSat := benchModel(t, satCfg, "Basicmath")
	satKnee := satLoop.CrossoverU()

	evalP := func(m *Model) func(u, itec float64) float64 {
		return func(u, itec float64) float64 {
			res, err := m.Evaluate(u, itec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Runaway {
				t.Fatalf("runaway at (u=%g, I=%g)", u, itec)
			}
			return res.CoolingPower()
		}
	}
	evalT := func(m *Model) func(u, itec float64) float64 {
		return func(u, itec float64) float64 {
			res, err := m.Evaluate(u, itec)
			if err != nil {
				t.Fatal(err)
			}
			return SmoothMax(res.ChipTemps, tau)
		}
	}

	points := []struct {
		name     string
		m        *Model
		u, itec  float64
		tol      float64
		hU, hCur float64
	}{
		{"interior", m, 200, 1.0, 1e-5, 0.5, 0.02},
		{"above-knee", m, knee * 1.5, 0.4, 1e-5, 0.05, 0.02},
		{"near-max-pump", m, m.UMax() - 2, 0.8, 1e-5, 0.4, 0.02},
		// On the saturated branch dg/du = 0 exactly: the whole u-gradient
		// is the pump affinity derivative, and the steps must stay below
		// the knee so the difference quotient sees one smooth branch.
		{"saturated", mSat, satKnee * 0.5, 0.6, 1e-5, satKnee * 0.1, 0.02},
		{"liquid-dc-interior", variant("liquid-dc"), 200, 1.0, 1e-5, 0.5, 0.02},
		{"liquid-package-interior", variant("liquid-package"), 200, 1.0, 1e-5, 0.5, 0.02},
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			g, err := pt.m.EvaluateGrad(nil, opPoint(pt.u, pt.itec))
			if err != nil {
				t.Fatal(err)
			}
			pOf, tOf := evalP(pt.m), evalT(pt.m)
			fd := richardson(func(u float64) float64 { return pOf(u, pt.itec) }, pt.u, pt.hU)
			checkGradComponent(t, "d𝒫/du", g.PowerGrad[0], fd, pt.tol)
			fd = richardson(func(c float64) float64 { return pOf(pt.u, c) }, pt.itec, pt.hCur)
			checkGradComponent(t, "d𝒫/dI", g.PowerGrad[1], fd, pt.tol)
			fd = richardson(func(u float64) float64 { return tOf(u, pt.itec) }, pt.u, pt.hU)
			checkGradComponent(t, "d𝒯/du", g.TempGrad[0], fd, pt.tol)
			fd = richardson(func(c float64) float64 { return tOf(pt.u, c) }, pt.itec, pt.hCur)
			checkGradComponent(t, "d𝒯/dI", g.TempGrad[1], fd, pt.tol)

			if pt.name == "saturated" {
				if want := satLoop.DPowerDU(pt.u); g.PowerGrad[0] != want {
					t.Errorf("saturated-branch d𝒫/du = %g, want the bare pump term %g", g.PowerGrad[0], want)
				}
				if g.TempGrad[0] != 0 {
					t.Errorf("saturated-branch d𝒯/du = %g, want exactly 0", g.TempGrad[0])
				}
			}
		})
	}
}

// TestLiquidROMFidelity: the ROM machinery is actuator-agnostic — built
// over a liquid model, its affine decomposition must stay inside the
// advertised temperature bound against the full liquid solve.
func TestLiquidROMFidelity(t *testing.T) {
	cfg := liquidConfig()
	m := benchModel(t, cfg, "Basicmath")
	rom, err := NewReducedModel(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{rom.OmegaFloor(), (rom.OmegaFloor() + m.UMax()) / 2, m.UMax()} {
		for _, itec := range []float64{0, 1, 2.5} {
			rr, ok, err := rom.Evaluate(u, itec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			fr, err := m.Evaluate(u, itec)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(rr.MaxChipTemp - fr.MaxChipTemp); d > rom.ErrorBound() {
				t.Errorf("(u=%g, I=%g): ROM off by %g K > bound %g K", u, itec, d, rom.ErrorBound())
			}
		}
	}
}

// TestLiquidPackageLowFlowIsRunaway: on the liquid-package cold plate the
// low-flow systems are indefinite. Their linear solve has a fixed point,
// but it is the unstable one, with nodes far below ambient and a negative
// cooling power, so each point must report runaway.
func TestLiquidPackageLowFlowIsRunaway(t *testing.T) {
	cfg := testConfig()
	spec, err := coolant.SpecByName("liquid-package")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Coolant = spec
	m := benchModel(t, cfg, "Quicksort")
	type point struct{ omega, itec float64 }
	pts := []point{{30, 0}}
	for _, omega := range []float64{5, 10, 15, 20} {
		for _, itec := range []float64{0, 1, 3} {
			pts = append(pts, point{omega, itec})
		}
	}
	for _, pt := range pts {
		r, err := m.Evaluate(pt.omega, pt.itec)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Runaway {
			t.Errorf("(u=%g rad/s, I=%g A): Runaway=false, max chip %.2f K, cooling power %.2f W",
				pt.omega, pt.itec, r.MaxChipTemp, r.CoolingPower())
		}
	}
}
