package coolant

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestFanPowerCubicLaw pins Equation (8) at the paper's constants.
func TestFanPowerCubicLaw(t *testing.T) {
	a := PaperAir()
	// The paper: c = 1.6e-7 J·s², so P(524 rad/s) ≈ 23 W.
	if p := a.Power(524); math.Abs(p-23.02) > 0.05 {
		t.Errorf("P(524) = %g, want ≈23.0", p)
	}
	if p := a.Power(0); p != 0 {
		t.Errorf("P(0) = %g, want 0", p)
	}
	if p := a.Power(-5); p != 0 {
		t.Errorf("P(-5) = %g, want 0 (clamped)", p)
	}
	// Cubic scaling: doubling speed multiplies power by 8.
	if r := a.Power(200) / a.Power(100); math.Abs(r-8) > 1e-9 {
		t.Errorf("P(2ω)/P(ω) = %g, want 8", r)
	}
}

// TestHeatSinkConductanceLaw pins Equation (9) at the paper's constants.
func TestHeatSinkConductanceLaw(t *testing.T) {
	a := PaperAir()
	// Paper values: g(ω) = 0.97·ln(ω) − 0.25.
	w := 209.0 // ≈2000 RPM
	want := 0.97*math.Log(209) - 0.25
	if g := a.Conductance(w); math.Abs(g-want) > 1e-12 {
		t.Errorf("g(209) = %g, want %g", g, want)
	}
	// Still-air floor.
	if g := a.Conductance(0); g != a.Sink.GHS {
		t.Errorf("g(0) = %g, want g_HS = %g", g, a.Sink.GHS)
	}
	if g := a.Conductance(0.5); g != a.Sink.GHS {
		t.Errorf("g(0.5) = %g, want saturated %g", g, a.Sink.GHS)
	}
}

// TestFanValidate: Air.Validate refuses a non-positive Equation (8)
// constant or maximum speed and accepts the paper fan.
func TestFanValidate(t *testing.T) {
	sink := PaperHeatSink()
	if err := (Air{Fan: FanSpec{C: 0, OmegaMax: 1}, Sink: sink}).Validate(); err == nil {
		t.Error("zero power constant accepted")
	}
	if err := (Air{Fan: FanSpec{C: 1, OmegaMax: 0}, Sink: sink}).Validate(); err == nil {
		t.Error("zero max speed accepted")
	}
	if err := PaperAir().Validate(); err != nil {
		t.Errorf("paper fan rejected: %v", err)
	}
}

// TestHeatSinkValidate: Air.Validate refuses each non-positive
// Equation (9) parameter the law divides by or scales with.
func TestHeatSinkValidate(t *testing.T) {
	bad := []HeatSinkSpec{
		{P: 0, Q: 1, GHS: 1},
		{P: 1, Q: 0, GHS: 1},
		{P: 1, Q: 1, GHS: 0},
	}
	for i, s := range bad {
		if err := (Air{Fan: PaperFan(), Sink: s}).Validate(); err == nil {
			t.Errorf("case %d: invalid heat sink accepted", i)
		}
	}
}

// TestConductanceMonotonicContinuous: the paper's Equation (9) law never
// decreases over the fan's range and has no jump at the crossover.
func TestConductanceMonotonicContinuous(t *testing.T) {
	a := PaperAir()
	prev := a.Conductance(0)
	for w := 0.1; w < 550; w += 0.5 {
		g := a.Conductance(w)
		if g < prev-1e-12 {
			t.Fatalf("conductance decreased at ω=%g: %g < %g", w, g, prev)
		}
		prev = g
	}
	wc := a.CrossoverU()
	if d := math.Abs(a.Conductance(wc*0.999) - a.Conductance(wc*1.001)); d > 1e-3 {
		t.Errorf("discontinuity %g at crossover ω=%g", d, wc)
	}
}

// TestCrossoverSpeed: at the reported crossover the logarithmic law
// equals the still-air floor.
func TestCrossoverSpeed(t *testing.T) {
	a := PaperAir()
	wc, s := a.CrossoverU(), a.Sink
	// p·ln(q·wc) + r must equal g_HS.
	if g := s.P*math.Log(s.Q*wc) + s.R; math.Abs(g-s.GHS) > 1e-9 {
		t.Errorf("log law at crossover = %g, want %g", g, s.GHS)
	}
}

// TestDConductanceDOmega: dg/dω is zero on the saturated branch and p/ω,
// checked by a central difference, on the law's branch.
func TestDConductanceDOmega(t *testing.T) {
	a := PaperAir()
	if d := a.DConductanceDU(1); d != 0 {
		t.Errorf("derivative on saturated branch = %g, want 0", d)
	}
	w := 300.0
	analytic := a.DConductanceDU(w)
	numeric := (a.Conductance(w+1e-4) - a.Conductance(w-1e-4)) / 2e-4
	if math.Abs(analytic-numeric) > 1e-6 {
		t.Errorf("dg/dω analytic %g vs numeric %g", analytic, numeric)
	}
}

// kneeActuators are the two families with a saturation knee, probed by
// the continuity/monotonicity property tests below.
func kneeActuators() []struct {
	name  string
	act   Actuator
	knee  float64
	floor float64
} {
	air := PaperAir()
	loop := PaperLoop()
	return []struct {
		name  string
		act   Actuator
		knee  float64
		floor float64
	}{
		{"air", air, air.CrossoverU(), air.Sink.GHS},
		{"liquid", loop, loop.CrossoverU(), loop.GMin},
	}
}

// TestConductanceContinuousAndMonotoneAcrossKnee is the saturation-knee
// property test: g(u) must be continuous (no jump where the law meets
// the floor), leave the floor just past the reported crossover, and be
// monotone nondecreasing on a dense grid straddling the crossover and
// running past UMax, for both actuator families.
func TestConductanceContinuousAndMonotoneAcrossKnee(t *testing.T) {
	for _, tc := range kneeActuators() {
		t.Run(tc.name, func(t *testing.T) {
			knee := tc.knee
			if knee <= 0 || knee >= tc.act.UMax() {
				t.Fatalf("crossover %g outside (0, %g)", knee, tc.act.UMax())
			}
			// Continuity at the knee: approaching from both sides the
			// conductance must meet the floor to first order in the step,
			// and just above the knee the law must have left the floor.
			for _, h := range []float64{1e-3, 1e-6, 1e-9} {
				lo, hi := tc.act.Conductance(knee-h), tc.act.Conductance(knee+h)
				if math.Abs(hi-lo) > 1e-3*h/1e-3+1e-9 {
					t.Errorf("jump at knee±%g: g=%g vs %g", h, lo, hi)
				}
				if math.Abs(lo-tc.floor) > 1e-6 {
					t.Errorf("g just below knee = %g, floor %g", lo, tc.floor)
				}
				if hi <= tc.floor {
					t.Errorf("g(knee+%g) = %g still on the floor %g: the crossover is early", h, hi, tc.floor)
				}
			}
			// Monotone nondecreasing across the whole range and 5% past
			// it, dense near the knee where a sign error would hide.
			prev := tc.act.Conductance(0)
			if prev != tc.floor {
				t.Errorf("g(0) = %g, want the floor %g", prev, tc.floor)
			}
			for i := 0; i <= 4200; i++ {
				u := tc.act.UMax() * float64(i) / 4000
				g := tc.act.Conductance(u)
				if g < prev {
					t.Fatalf("g decreases at u=%g: %g < %g", u, g, prev)
				}
				prev = g
			}
		})
	}
}

// TestDConductanceExactZeroOnSaturatedBranch: the derivative must be
// exactly zero (not merely small) everywhere the floor clamp is active,
// mirroring the pinned-variable convention the optimizers rely on,
// strictly positive just above the knee, and a central difference of g
// on the law's branch.
func TestDConductanceExactZeroOnSaturatedBranch(t *testing.T) {
	for _, tc := range kneeActuators() {
		t.Run(tc.name, func(t *testing.T) {
			knee := tc.knee
			for _, u := range []float64{-1, 0, knee * 0.25, knee * 0.5, knee * 0.99, knee} {
				if d := tc.act.DConductanceDU(u); d != 0 {
					t.Errorf("DConductanceDU(%g) = %g on the saturated branch, want exactly 0", u, d)
				}
			}
			for _, u := range []float64{knee * 1.01, knee * 2, 0.6 * tc.act.UMax(), tc.act.UMax()} {
				d := tc.act.DConductanceDU(u)
				if d <= 0 {
					t.Errorf("DConductanceDU(%g) = %g above the knee, want > 0", u, d)
				}
				if u < 2*knee {
					continue // the difference quotient would straddle the knee
				}
				h := 1e-4 * u
				fd := (tc.act.Conductance(u+h) - tc.act.Conductance(u-h)) / (2 * h)
				if math.Abs(d-fd) > 1e-6*math.Max(1, math.Abs(fd)) {
					t.Errorf("DConductanceDU(%g) = %g, central diff %g", u, d, fd)
				}
			}
		})
	}
}

// TestLiquidPhysics pins the liquid law's limits: conductance approaches
// the capacity rate at low flow, saturates below UA at high flow, and the
// derivative matches a central difference on the flowing branch.
func TestLiquidPhysics(t *testing.T) {
	l := PaperLoop()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// ε-NTU cap: g < UA everywhere, approaching it as flow grows.
	big := Liquid{PumpC: l.PumpC, MaxSpeed: 1e6, FlowPerU: l.FlowPerU, Rho: l.Rho, Cp: l.Cp, UA: l.UA, GMin: l.GMin}
	if g := big.Conductance(1e6); g >= l.UA || g < 0.99*l.UA {
		t.Errorf("high-flow conductance %g should saturate just below UA=%g", g, l.UA)
	}
	// Low-flow limit: the coolant stream is the bottleneck, g ≈ C(u).
	uLow := 2 * l.CrossoverU()
	c := l.Rho * l.FlowPerU * l.Cp * uLow
	if g := l.Conductance(uLow); math.Abs(g-c)/c > 0.01 {
		t.Errorf("low-flow conductance %g should approach capacity rate %g", g, c)
	}
	// Affinity law and its derivative.
	if p := l.Power(l.MaxSpeed); math.Abs(p-l.PumpC*math.Pow(l.MaxSpeed, 3)) > 1e-12 {
		t.Errorf("Power(%g) = %g violates the affinity law", l.MaxSpeed, p)
	}
	for _, u := range []float64{l.CrossoverU() * 1.5, 100, 250, l.MaxSpeed} {
		h := 1e-3 * u
		fd := (l.Conductance(u+h) - l.Conductance(u-h)) / (2 * h)
		if d := l.DConductanceDU(u); math.Abs(d-fd) > 1e-6*math.Max(1, math.Abs(fd)) {
			t.Errorf("DConductanceDU(%g) = %g, central diff %g", u, d, fd)
		}
		fd = (l.Power(u+h) - l.Power(u-h)) / (2 * h)
		if d := l.DPowerDU(u); math.Abs(d-fd) > 1e-6*math.Max(1, math.Abs(fd)) {
			t.Errorf("DPowerDU(%g) = %g, central diff %g", u, d, fd)
		}
	}
}

// TestFacilityWrapper: PUE scales power and its derivative, never the
// thermal path.
func TestFacilityWrapper(t *testing.T) {
	base := PaperLoop()
	f := Facility{Base: base, PUE: DatacenterPUE}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0, 50, 200, base.MaxSpeed} {
		if got, want := f.Power(u), DatacenterPUE*base.Power(u); got != want {
			t.Errorf("Power(%g) = %g, want %g", u, got, want)
		}
		if got, want := f.DPowerDU(u), DatacenterPUE*base.DPowerDU(u); got != want {
			t.Errorf("DPowerDU(%g) = %g, want %g", u, got, want)
		}
		if f.Conductance(u) != base.Conductance(u) || f.DConductanceDU(u) != base.DConductanceDU(u) {
			t.Errorf("facility wrapper altered the thermal path at u=%g", u)
		}
	}
	if (Facility{Base: base, PUE: 0.9}).Validate() == nil {
		t.Error("PUE < 1 validated")
	}
}

// TestColdPlateShare: the N-chip share splits conductance and drive power
// evenly and leaves the command bound alone.
func TestColdPlateShare(t *testing.T) {
	base := PaperLoop()
	p := ColdPlate{Base: base, Chips: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.UMax() != base.UMax() {
		t.Errorf("UMax changed: %g vs %g", p.UMax(), base.UMax())
	}
	for _, u := range []float64{0, 100, base.MaxSpeed} {
		if got, want := p.Conductance(u), base.Conductance(u)/4; got != want {
			t.Errorf("Conductance(%g) = %g, want %g", u, got, want)
		}
		if got, want := p.Power(u), base.Power(u)/4; got != want {
			t.Errorf("Power(%g) = %g, want %g", u, got, want)
		}
		if got, want := p.DConductanceDU(u), base.DConductanceDU(u)/4; got != want {
			t.Errorf("DConductanceDU(%g) = %g, want %g", u, got, want)
		}
		if got, want := p.DPowerDU(u), base.DPowerDU(u)/4; got != want {
			t.Errorf("DPowerDU(%g) = %g, want %g", u, got, want)
		}
	}
	if (ColdPlate{Base: base, Chips: 0}).Validate() == nil {
		t.Error("zero-chip cold plate validated")
	}
}

// TestSpecResolveAndNames: the named variants resolve, the nil/air spec
// is the exact air actuator, and unknown names list the registry.
func TestSpecResolveAndNames(t *testing.T) {
	airFan, airSink := PaperFan(), PaperHeatSink()

	spec, err := SpecByName("")
	if err != nil || spec != nil {
		t.Fatalf("empty name: spec %v err %v, want nil nil", spec, err)
	}
	if spec, err = SpecByName("air"); err != nil || spec != nil {
		t.Fatalf("air: spec %v err %v, want nil nil", spec, err)
	}
	act, err := (*Spec)(nil).Resolve(airFan, airSink)
	if err != nil {
		t.Fatal(err)
	}
	if act != (Air{Fan: airFan, Sink: airSink}) {
		t.Fatalf("nil spec resolved to %#v, want the air pair", act)
	}

	for _, name := range Names() {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatalf("registered name %q: %v", name, err)
		}
		act, err := spec.Resolve(airFan, airSink)
		if err != nil {
			t.Fatalf("resolving %q: %v", name, err)
		}
		if err := act.Validate(); err != nil {
			t.Fatalf("%q resolves to an invalid actuator: %v", name, err)
		}
	}

	if _, err := SpecByName("chilled-beam"); err == nil ||
		!strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Fatalf("unknown name error %v must list the registered names", err)
	}

	// Variant wiring: liquid-dc carries the PUE, liquid-package the share.
	dc, _ := SpecByName("liquid-dc")
	if a, _ := dc.Resolve(airFan, airSink); a.Power(100) != DatacenterPUE*PaperLoop().Power(100) {
		t.Error("liquid-dc does not meter at DatacenterPUE")
	}
	pkg, _ := SpecByName("liquid-package")
	if pkg.PackageChips() != DefaultPackageChips {
		t.Errorf("liquid-package chips = %d, want %d", pkg.PackageChips(), DefaultPackageChips)
	}
}

// TestSpecJSONRoundTrip: the spec survives JSON (the configuration
// persists it), and invalid shapes are rejected.
func TestSpecJSONRoundTrip(t *testing.T) {
	loop := PaperLoop()
	in := &Spec{Kind: KindLiquid, Liquid: &loop, PUE: 1.25, Chips: 2}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.PUE != in.PUE || out.Chips != in.Chips || *out.Liquid != *in.Liquid {
		t.Fatalf("round trip lost data: %+v vs %+v", out, in)
	}

	bad := []Spec{
		{Kind: "peltier"},
		{Kind: KindAir, Liquid: &loop},
		{Kind: KindLiquid, PUE: 0.5},
		{Kind: KindLiquid, Chips: -1},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
}

func TestFitLogLawRecoversParameters(t *testing.T) {
	// Samples generated from a known log law must be fit exactly.
	const p, r = 0.97, -0.25
	var samples []Sample
	for _, w := range []float64{10, 30, 90, 270, 520} {
		samples = append(samples, Sample{Omega: w, G: p*math.Log(w) + r})
	}
	gotP, gotR, err := FitLogLaw(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotP-p) > 1e-9 || math.Abs(gotR-r) > 1e-9 {
		t.Errorf("fit = (%g, %g), want (%g, %g)", gotP, gotR, p, r)
	}
}

func TestFitLogLawErrors(t *testing.T) {
	if _, _, err := FitLogLaw(nil); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, _, err := FitLogLaw([]Sample{{1, 1}}); err == nil {
		t.Error("single sample accepted")
	}
	if _, _, err := FitLogLaw([]Sample{{-1, 1}, {2, 2}}); err == nil {
		t.Error("negative speed accepted")
	}
	if _, _, err := FitLogLaw([]Sample{{5, 1}, {5, 2}}); err == nil {
		t.Error("identical speeds accepted")
	}
}

// Property: the OLS fit minimizes squared error — perturbing (p, r) never
// reduces the residual.
func TestFitLogLawOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		samples := make([]Sample, n)
		for i := range samples {
			w := 5 + rng.Float64()*500
			samples[i] = Sample{Omega: w, G: 0.8*math.Log(w) + rng.NormFloat64()*0.1}
		}
		p, r, err := FitLogLaw(samples)
		if err != nil {
			return false
		}
		sse := func(p, r float64) float64 {
			var s float64
			for _, smp := range samples {
				d := smp.G - (p*math.Log(smp.Omega) + r)
				s += d * d
			}
			return s
		}
		base := sse(p, r)
		for _, dp := range []float64{-0.01, 0.01} {
			if sse(p+dp, r) < base-1e-12 || sse(p, r+dp) < base-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConvectionReferenceFitNearPaper(t *testing.T) {
	// Fitting the first-principles convection model over the paper's
	// operating range must land near the paper's (p, r) = (0.97, −0.25).
	ref := DefaultConvectionReference()
	samples, err := ref.Samples(50, 524, 20)
	if err != nil {
		t.Fatal(err)
	}
	p, r, err := FitLogLaw(samples)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5 || p > 1.5 {
		t.Errorf("fitted p = %g, want near 0.97", p)
	}
	if r < -1.5 || r > 0.6 {
		t.Errorf("fitted r = %g, want near -0.25", r)
	}
	// The fit must be decent: max relative error below 15% on the range.
	for _, s := range samples {
		fit := p*math.Log(s.Omega) + r
		if rel := math.Abs(fit-s.G) / s.G; rel > 0.15 {
			t.Errorf("fit error %.1f%% at ω=%g", rel*100, s.Omega)
		}
	}
}

func TestConvectionReferenceSampleErrors(t *testing.T) {
	ref := DefaultConvectionReference()
	if _, err := ref.Samples(50, 524, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ref.Samples(-1, 524, 5); err == nil {
		t.Error("negative omegaMin accepted")
	}
	if _, err := ref.Samples(100, 50, 5); err == nil {
		t.Error("inverted range accepted")
	}
	if g := ref.Conductance(0); g != ref.GBase {
		t.Errorf("Conductance(0) = %g, want GBase", g)
	}
}
