package tec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sample() Device {
	return Device{Seebeck: 0.0015, Resistance: 0.004, Conductance: 0.1, MaxCurrent: 5}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid device rejected: %v", err)
	}
	bad := []Device{
		{Seebeck: 0, Resistance: 1, Conductance: 1, MaxCurrent: 1},
		{Seebeck: 1, Resistance: 0, Conductance: 1, MaxCurrent: 1},
		{Seebeck: 1, Resistance: 1, Conductance: 0, MaxCurrent: 1},
		{Seebeck: 1, Resistance: 1, Conductance: 1, MaxCurrent: 0},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid device accepted: %+v", i, d)
		}
	}
}

func TestEquationOneTwoThree(t *testing.T) {
	d := sample()
	tc, th, i := 350.0, 360.0, 2.0
	dT := th - tc

	qc := d.ColdSideHeat(tc, dT, i)
	qh := d.HotSideHeat(th, dT, i)
	p := d.Power(dT, i)

	// Equation (1): α·Tc·I − K·ΔT − ½R·I².
	wantQc := 0.0015*350*2 - 0.1*10 - 0.5*0.004*4
	if math.Abs(qc-wantQc) > 1e-12 {
		t.Errorf("q̇c = %g, want %g", qc, wantQc)
	}
	// Equation (3): P = q̇h − q̇c = α·ΔT·I + R·I².
	if math.Abs(p-(qh-qc)) > 1e-12 {
		t.Errorf("P = %g but q̇h−q̇c = %g", p, qh-qc)
	}
	wantP := 0.0015*10*2 + 0.004*4
	if math.Abs(p-wantP) > 1e-12 {
		t.Errorf("P = %g, want %g", p, wantP)
	}
}

// Property: energy conservation P = q̇h − q̇c holds for any operating point.
func TestPowerBalanceProperty(t *testing.T) {
	d := sample()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tc := 280 + rng.Float64()*120
		dT := -20 + rng.Float64()*60
		i := rng.Float64() * 5
		th := tc + dT
		lhs := d.Power(dT, i)
		rhs := d.HotSideHeat(th, dT, i) - d.ColdSideHeat(tc, dT, i)
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOptimalCurrentMaximizesCooling(t *testing.T) {
	d := sample()
	tc, dT := 350.0, 5.0
	iOpt := d.OptimalCurrent(tc)
	if want := d.Seebeck * tc / d.Resistance; math.Abs(iOpt-want) > 1e-12 {
		t.Fatalf("OptimalCurrent = %g, want %g", iOpt, want)
	}
	best := d.ColdSideHeat(tc, dT, iOpt)
	for _, di := range []float64{-1, -0.1, 0.1, 1} {
		if q := d.ColdSideHeat(tc, dT, iOpt+di); q > best+1e-12 {
			t.Errorf("cooling at I=%g (%g) exceeds optimum (%g)", iOpt+di, q, best)
		}
	}
	if mc := d.MaxCooling(tc, dT); math.Abs(mc-best) > 1e-12 {
		t.Errorf("MaxCooling = %g, want %g", mc, best)
	}
}

func TestMaxDeltaT(t *testing.T) {
	d := sample()
	tc := 350.0
	dtMax := d.MaxDeltaT(tc)
	// At ΔT_max and the optimal current, net cooling should be ≈ 0.
	q := d.ColdSideHeat(tc, dtMax, d.OptimalCurrent(tc))
	if math.Abs(q) > 1e-9 {
		t.Errorf("cold-side heat at ΔT_max = %g, want 0", q)
	}
}

func TestFigureOfMerit(t *testing.T) {
	d := sample()
	zt := d.FigureOfMerit(300)
	want := 0.0015 * 0.0015 * 300 / (0.004 * 0.1)
	if math.Abs(zt-want) > 1e-12 {
		t.Errorf("ZT = %g, want %g", zt, want)
	}
}

func TestCOP(t *testing.T) {
	d := sample()
	cop := d.COP(350, 5, 1)
	qc := d.ColdSideHeat(350, 5, 1)
	p := d.Power(5, 1)
	if math.Abs(cop-qc/p) > 1e-12 {
		t.Errorf("COP = %g, want %g", cop, qc/p)
	}
	if got := d.COP(350, 5, 0); got != 0 {
		t.Errorf("COP at zero current = %g, want 0", got)
	}
}

func TestElementCircuitMatchesClosedForm(t *testing.T) {
	e, err := NewElement(sample())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range [][3]float64{
		{350, 360, 0}, {350, 360, 1}, {350, 360, 5},
		{320, 320, 2}, {400, 380, 3},
	} {
		if errAbs := e.VerifyEquation1(op[0], op[1], op[2]); errAbs > 1e-9 {
			t.Errorf("circuit/closed-form mismatch %g at (Tc=%g, Th=%g, I=%g)", errAbs, op[0], op[1], op[2])
		}
	}
}

// Property: the three-node circuit reproduces Equation (1) at any point.
func TestElementEquivalenceProperty(t *testing.T) {
	e, err := NewElement(sample())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tc := 280 + rng.Float64()*120
		th := tc + (-20 + rng.Float64()*60)
		i := rng.Float64() * 5
		return e.VerifyEquation1(tc, th, i) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestElementSourceCoefficients(t *testing.T) {
	e, _ := NewElement(sample())
	if got := e.ColdSourceCoefficient(2); math.Abs(got+0.003) > 1e-15 {
		t.Errorf("cold coefficient = %g, want -0.003", got)
	}
	if got := e.HotSourceCoefficient(2); math.Abs(got-0.003) > 1e-15 {
		t.Errorf("hot coefficient = %g, want 0.003", got)
	}
	if got := e.JouleSource(3); math.Abs(got-0.036) > 1e-15 {
		t.Errorf("Joule source = %g, want 0.036", got)
	}
	if got := e.InternalConductance(); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("internal conductance = %g, want 0.2", got)
	}
	if _, err := NewElement(Device{}); err == nil {
		t.Error("NewElement accepted invalid device")
	}
}
