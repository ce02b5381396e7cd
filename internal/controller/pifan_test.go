package controller

import (
	"math"
	"testing"

	"oftec/internal/core"
	"oftec/internal/units"
	"oftec/internal/workload"
)

func TestPIFanValidate(t *testing.T) {
	good := &PIFan{Setpoint: 353, Kp: 10, Ki: 1, OmegaMin: 10, OmegaMax: 524}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*PIFan{
		{Setpoint: 0, Kp: 1, Ki: 1, OmegaMin: 0, OmegaMax: 1},
		{Setpoint: 300, Kp: -1, Ki: 1, OmegaMin: 0, OmegaMax: 1},
		{Setpoint: 300, Kp: 1, Ki: 1, OmegaMin: 5, OmegaMax: 1},
		{Setpoint: 300, Kp: 1, Ki: 1, OmegaMin: -1, OmegaMax: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPIFanProportionalResponse(t *testing.T) {
	c := &PIFan{Setpoint: 350, Kp: 10, Ki: 0, OmegaMin: 0, OmegaMax: 524}
	// 5 K above the set point → ω = 50 rad/s.
	if w, _ := c.Act(0, 355); w != 50 {
		t.Errorf("ω = %g, want 50", w)
	}
	// Below the set point with no integral → clamped at the lower rail.
	if w, _ := c.Act(1, 345); w != 0 {
		t.Errorf("ω = %g, want 0", w)
	}
}

func TestPIFanIntegralAccumulates(t *testing.T) {
	c := &PIFan{Setpoint: 350, Kp: 0, Ki: 2, OmegaMin: 0, OmegaMax: 524}
	c.Act(0, 355) // primes the clock; dt=0 so no integral yet
	w1, _ := c.Act(1, 355)
	w2, _ := c.Act(2, 355)
	if !(w2 > w1 && w1 > 0) {
		t.Errorf("integral not accumulating: %g then %g", w1, w2)
	}
}

func TestPIFanAntiWindup(t *testing.T) {
	c := &PIFan{Setpoint: 350, Kp: 0, Ki: 100, OmegaMin: 0, OmegaMax: 100}
	c.Act(0, 400)
	for k := 1; k <= 50; k++ {
		c.Act(float64(k), 400) // pegged at the rail for 50 s
	}
	// After the error disappears, a wound-up integral would hold the fan
	// at the rail for many seconds; anti-windup must release quickly.
	c.Act(51, 350)
	w, _ := c.Act(52, 340) // now 10 K below: should drop fast
	if w > 50 {
		t.Errorf("anti-windup failed: ω still %g after error reversed", w)
	}
}

func TestPIFanRegulatesPlant(t *testing.T) {
	m := testModel(t, "Basicmath")
	set := units.CToK(70)
	c := &PIFan{
		Setpoint: set,
		Kp:       30, Ki: 8,
		OmegaMin: 15, OmegaMax: 524,
		ITEC: 0,
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	trace, err := simulate(t, m, "Basicmath", c, 240.0, 1.0, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	final := trace[len(trace)-1].MaxTempC
	if d := final - units.KToC(set); d > 2 || d < -4 {
		t.Errorf("PI settled at %g °C, set point %g °C", final, units.KToC(set))
	}
}

func TestBuildLUT(t *testing.T) {
	m := testModel(t, "Basicmath")
	sys := core.NewSystem(m)
	b, err := workload.ByName("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	base, err := b.PowerMap(m.Config().Floorplan)
	if err != nil {
		t.Fatal(err)
	}

	lut, err := BuildLUT(sys, base, []float64{15, 25, 35}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := lut.Entries()
	if len(entries) != 3 {
		t.Fatalf("got %d entries", len(entries))
	}
	// Hotter levels must demand at least as much fan.
	for i := 1; i < len(entries); i++ {
		if entries[i].Omega < entries[i-1].Omega {
			t.Errorf("ω not monotone in power level: %+v", entries)
		}
	}
	// The model's workload must be restored after building.
	if got := m.DynamicPowerTotal(); math.Abs(got-base.Total()) > 1e-9 {
		t.Errorf("BuildLUT left the model at %g W, want %g", got, base.Total())
	}

	// Error paths.
	if _, err := BuildLUT(sys, base, nil, core.Options{}); err == nil {
		t.Error("empty level list accepted")
	}
	if _, err := BuildLUT(sys, base, []float64{-1}, core.Options{}); err == nil {
		t.Error("negative level accepted")
	}
	// A hopeless power level must be rejected, not stored.
	if _, err := BuildLUT(sys, base, []float64{500}, core.Options{}); err == nil {
		t.Error("infeasible level accepted")
	}
}
