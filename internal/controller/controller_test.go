package controller

import (
	"math"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/power"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// testModel builds a coarse-grid plant (the full backend over a fresh
// thermal model) for the closed-loop simulation tests.
func testModel(t *testing.T, bench string) backend.Plant {
	t.Helper()
	cfg := thermal.DefaultConfig()
	cfg.ChipRes = 8
	cfg.SpreaderRes = 7
	cfg.SinkRes = 6
	cfg.PCBRes = 4
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	m, err := thermal.NewModel(cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	return backend.NewFull(m)
}

// simulate runs ctrl in closed loop on a plant from testModel under its
// benchmark's constant workload, a one-sample trace, and returns the
// controller-level samples.
func simulate(t *testing.T, p backend.Plant, bench string, ctrl Controller, duration, dtSim, dtCtrl float64, fromAmbient bool) ([]TracePoint, error) {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(p.Config().Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	var tr power.Trace
	if err := tr.Append(0, pm); err != nil {
		t.Fatal(err)
	}
	detail, err := TraceSimulate(p, ctrl, &tr, duration, dtSim, dtCtrl, fromAmbient)
	if err != nil {
		return nil, err
	}
	out := make([]TracePoint, len(detail))
	for i, d := range detail {
		out[i] = d.TracePoint
	}
	return out, nil
}

func TestThresholdControllerSwitches(t *testing.T) {
	c := &Threshold{Omega: 200, IOn: 2, TOn: 360}
	if _, i := c.Act(0, 355); i != 0 {
		t.Error("TEC on below threshold")
	}
	if _, i := c.Act(1, 365); i != 2 {
		t.Error("TEC off above threshold")
	}
	if w, _ := c.Act(2, 365); w != 200 {
		t.Error("fan speed changed")
	}
	if c.Name() == "" {
		t.Error("empty name")
	}
}

func TestHysteresisBand(t *testing.T) {
	c := &Hysteresis{Omega: 200, IOn: 2, THigh: 362, TLow: 356}
	if _, i := c.Act(0, 358); i != 0 {
		t.Error("initially on inside the band")
	}
	if _, i := c.Act(1, 363); i != 2 {
		t.Error("not on above THigh")
	}
	// Inside the band the state must persist (that is the hysteresis).
	if _, i := c.Act(2, 358); i != 2 {
		t.Error("dropped out inside the band")
	}
	if _, i := c.Act(3, 355); i != 0 {
		t.Error("not off below TLow")
	}
	if _, i := c.Act(4, 358); i != 0 {
		t.Error("back on inside the band")
	}
}

func TestHysteresisReducesTransitions(t *testing.T) {
	// Feed both controllers the same noisy temperature sequence straddling
	// the threshold; the hysteresis controller must switch less.
	th := &Threshold{Omega: 200, IOn: 2, TOn: 360}
	hy := &Hysteresis{Omega: 200, IOn: 2, THigh: 361.5, TLow: 358.5}
	temps := []float64{359, 361, 359.2, 360.8, 359.4, 360.6, 359.1, 362, 358, 361}
	var trTh, trHy []TracePoint
	for k, temp := range temps {
		_, i1 := th.Act(float64(k), temp)
		_, i2 := hy.Act(float64(k), temp)
		trTh = append(trTh, TracePoint{Time: float64(k), ITEC: i1})
		trHy = append(trHy, TracePoint{Time: float64(k), ITEC: i2})
	}
	if CountTECTransitions(trHy) >= CountTECTransitions(trTh) {
		t.Errorf("hysteresis transitions (%d) not fewer than threshold's (%d)",
			CountTECTransitions(trHy), CountTECTransitions(trTh))
	}
}

func TestSimulateStaticReachesSteadyState(t *testing.T) {
	m := testModel(t, "CRC32")
	ctrl := &Static{Omega: units.RPMToRadPerSec(2000), ITEC: 0.5}
	trace, err := simulate(t, m, "CRC32", ctrl, 2.0, 0.1, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Starting from the steady state at the same operating point, the
	// temperature must stay essentially flat.
	first, last := trace[0].MaxTempC, trace[len(trace)-1].MaxTempC
	if math.Abs(first-last) > 0.5 {
		t.Errorf("static run drifted from %g to %g °C", first, last)
	}
}

func TestSimulateFromAmbientWarmsUp(t *testing.T) {
	m := testModel(t, "Basicmath")
	ctrl := &Static{Omega: units.RPMToRadPerSec(2500), ITEC: 0}
	trace, err := simulate(t, m, "Basicmath", ctrl, 3.0, 0.05, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	first, last := trace[0].MaxTempC, trace[len(trace)-1].MaxTempC
	if last <= first+1 {
		t.Errorf("no warm-up from ambient: %g → %g °C", first, last)
	}
}

func TestSimulateTimingValidation(t *testing.T) {
	m := testModel(t, "CRC32")
	ctrl := &Static{Omega: 100}
	if _, err := simulate(t, m, "CRC32", ctrl, 0, 0.1, 0.1, false); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := simulate(t, m, "CRC32", ctrl, 1, 0, 0.1, false); err == nil {
		t.Error("zero sim step accepted")
	}
	if _, err := simulate(t, m, "CRC32", ctrl, 1, 0.2, 0.1, false); err == nil {
		t.Error("control period below sim step accepted")
	}
}

func TestBoostControllerShape(t *testing.T) {
	c := &Boost{BaseOmega: 250, BaseITEC: 1, DeltaI: 1, Duration: 1}
	if _, i := c.Act(0.5, 0); i != 2 {
		t.Errorf("during boost I = %g, want 2", i)
	}
	if _, i := c.Act(1.5, 0); i != 1 {
		t.Errorf("after boost I = %g, want 1", i)
	}
}

func TestBoostCoolsDuringWarmup(t *testing.T) {
	// The paper's Section 6.2 scenario: a step load arrives; until OFTEC's
	// answer is ready, briefly over-driving the TECs keeps the chip cooler
	// than holding the base current.
	m := testModel(t, "Quicksort")
	omega := units.RPMToRadPerSec(2500)

	base := &Static{Omega: omega, ITEC: 1}
	boosted := &Boost{BaseOmega: omega, BaseITEC: 1, DeltaI: 1, Duration: 1}

	trBase, err := simulate(t, m, "Quicksort", base, 1.0, 0.05, 0.05, true)
	if err != nil {
		t.Fatal(err)
	}
	trBoost, err := simulate(t, m, "Quicksort", boosted, 1.0, 0.05, 0.05, true)
	if err != nil {
		t.Fatal(err)
	}
	if PeakTemp(trBoost) >= PeakTemp(trBase) {
		t.Errorf("boost peak %g °C not below base peak %g °C",
			PeakTemp(trBoost), PeakTemp(trBase))
	}
}

func TestLUT(t *testing.T) {
	lut, err := NewLUT([]LUTEntry{
		{TotalPower: 40, Omega: 300, ITEC: 2},
		{TotalPower: 20, Omega: 120, ITEC: 0.5},
		{TotalPower: 30, Omega: 200, ITEC: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sorted on construction.
	if es := lut.Entries(); es[0].TotalPower != 20 || es[2].TotalPower != 40 {
		t.Errorf("entries not sorted: %+v", es)
	}
	// Exact hit.
	if w, i := lut.Lookup(30); w != 200 || i != 1 {
		t.Errorf("Lookup(30) = (%g, %g)", w, i)
	}
	// Between levels: choose the hotter (conservative) entry.
	if w, _ := lut.Lookup(25); w != 200 {
		t.Errorf("Lookup(25) chose ω=%g, want 200", w)
	}
	// Above the range: clamp to the highest.
	if w, _ := lut.Lookup(99); w != 300 {
		t.Errorf("Lookup(99) chose ω=%g, want 300", w)
	}
	// Below the range: the coolest entry still provides cooling.
	if w, _ := lut.Lookup(5); w != 120 {
		t.Errorf("Lookup(5) chose ω=%g, want 120", w)
	}

	if _, err := NewLUT(nil); err == nil {
		t.Error("empty LUT accepted")
	}
	if _, err := NewLUT([]LUTEntry{{TotalPower: 1}, {TotalPower: 1}}); err == nil {
		t.Error("duplicate power level accepted")
	}
}

func TestThresholdControllerClosedLoop(t *testing.T) {
	// Closed loop on a hot benchmark at a moderate fan speed. A threshold
	// controller whose set point lies below the passive steady temperature
	// produces the classic bang-bang limit cycle of reference [5]: the TEC
	// duty-cycles and the time-averaged temperature drops well below the
	// uncontrolled run even though instantaneous peaks touch the passive
	// level between samples.
	m := testModel(t, "Quicksort")
	omega := units.RPMToRadPerSec(3000)
	tOn := units.CToK(86)

	off := &Static{Omega: omega, ITEC: 0}
	ctl := &Threshold{Omega: omega, IOn: 2.5, TOn: tOn}

	trOff, err := simulate(t, m, "Quicksort", off, 2.0, 0.1, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	trCtl, err := simulate(t, m, "Quicksort", ctl, 2.0, 0.1, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(tr []TracePoint) float64 {
		var s float64
		for _, p := range tr {
			s += p.MaxTempC
		}
		return s / float64(len(tr))
	}
	if mean(trCtl) >= mean(trOff)-2 {
		t.Errorf("controlled mean %g °C not well below uncontrolled %g °C",
			mean(trCtl), mean(trOff))
	}
	if n := CountTECTransitions(trCtl); n < 2 {
		t.Errorf("expected a bang-bang limit cycle, got %d transitions", n)
	}
}
