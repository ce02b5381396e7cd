package thermal

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"oftec/internal/units"
)

func TestTransientConvergesToSteadyState(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	omega := units.RPMToRadPerSec(2500)

	tr, err := m.NewTransient(omega, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// March to (near) steady state with growing steps.
	for _, dt := range []float64{0.01, 0.01, 0.05, 0.05, 0.2, 0.2, 1, 1, 5, 5, 20, 20, 100, 100, 500, 500} {
		if _, err := tr.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	gap, err := tr.SteadyStateGap()
	if err != nil {
		t.Fatal(err)
	}
	if gap > 0.05 {
		t.Errorf("transient ended %g K from steady state", gap)
	}
}

func TestTransientMonotoneWarmupFromAmbient(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "CRC32")
	tr, err := m.NewTransient(units.RPMToRadPerSec(2000), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := cfg.Ambient
	for k := 0; k < 20; k++ {
		maxTemp, err := tr.Step(0.05)
		if err != nil {
			t.Fatal(err)
		}
		if maxTemp < prev-1e-9 {
			t.Fatalf("warm-up not monotone at step %d: %g < %g", k, maxTemp, prev)
		}
		prev = maxTemp
	}
	if prev <= cfg.Ambient+1 {
		t.Errorf("chip barely warmed after 1 s: %g K", prev)
	}
}

func TestTransientStepValidation(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "CRC32")
	tr, err := m.NewTransient(100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := tr.Step(dt); err == nil {
			t.Errorf("step %g accepted", dt)
		}
	}
	if err := tr.SetOperatingPoint(-1, 0); err == nil {
		t.Error("negative fan speed accepted")
	}
	if _, err := m.NewTransient(100, 0, make([]float64, 3)); err == nil {
		t.Error("mismatched initial state accepted")
	}
	if _, err := m.NewTransient(-1, 0, nil); err == nil {
		t.Error("negative operating point accepted")
	}
}

// TestTransientRunawayIsAnError: on a runaway-heavy configuration
// (ambient 140 °C, leakage density ×32) a transient from ambient heats
// past the runaway temperature within half a millisecond; at 0.1 ms steps
// a few steps pass before it, and at 10 ms the step matrix does not
// factor at all. The step that
// would pass it fails, wrapping ErrRunaway, and leaves the state, the
// clock and the steps before it as they were; every step before it stayed
// at or below the threshold.
func TestTransientRunawayIsAnError(t *testing.T) {
	cfg := testConfig()
	cfg.Ambient = units.CToK(140)
	cfg.TMax = cfg.Ambient + 45
	cfg.Leakage.P0Density *= 32
	m := benchModel(t, cfg, "Quicksort")
	limit := m.cfg.runawayTemp()
	tr, err := m.NewTransient(0.1*m.UMax(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		before := append([]float64(nil), tr.Temperatures()...)
		now := tr.Time()
		maxTemp, err := tr.Step(1e-4)
		if err == nil {
			if maxTemp > limit {
				t.Fatalf("step %d: chip at %g K, past %g K, with no error", k, maxTemp, limit)
			}
			continue
		}
		if !errors.Is(err, ErrRunaway) {
			t.Fatalf("step %d: %v, want ErrRunaway", k, err)
		}
		if k == 0 {
			t.Fatal("runaway on the first step: nothing before it is checked")
		}
		if tr.Time() != now || !reflect.DeepEqual(tr.Temperatures(), before) {
			t.Fatalf("step %d: a runaway step advanced the state (t %g → %g)", k, now, tr.Time())
		}
		if held, _ := tr.ChipState(); held > limit {
			t.Fatalf("state after the failed step holds %g K", held)
		}
		t.Logf("runaway at step %d (t = %g s): %v", k, now, err)
		return
	}
	t.Fatal("no runaway in 10 ms on a runaway-heavy configuration")
}

func TestPeltierBoostActsImmediately(t *testing.T) {
	// The physical basis of the paper's transient-boost idea: right after
	// a current increase the hotspot cools before the extra Joule heat has
	// propagated through the stack. Compare the chip temperature shortly
	// after stepping the current up against holding it constant.
	cfg := testConfig()
	m := benchModel(t, cfg, "Quicksort")
	omega := units.RPMToRadPerSec(2500)
	ss, err := m.Evaluate(omega, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Runaway {
		t.Fatal("unexpected runaway")
	}

	hold, err := m.NewTransient(omega, 1, ss.T)
	if err != nil {
		t.Fatal(err)
	}
	boost, err := m.NewTransient(omega, 1, ss.T)
	if err != nil {
		t.Fatal(err)
	}
	if err := boost.SetOperatingPoint(omega, 2.5); err != nil {
		t.Fatal(err)
	}
	var holdT, boostT float64
	for k := 0; k < 10; k++ {
		if holdT, err = hold.Step(0.02); err != nil {
			t.Fatal(err)
		}
		if boostT, err = boost.Step(0.02); err != nil {
			t.Fatal(err)
		}
	}
	if boostT >= holdT-0.05 {
		t.Errorf("boost should cool within 0.2 s: boosted %g K vs held %g K", boostT, holdT)
	}
}

func TestTransientTimeAccounting(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "CRC32")
	tr, err := m.NewTransient(100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := tr.Step(0.25); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(tr.Time()-1.25) > 1e-12 {
		t.Errorf("Time = %g, want 1.25", tr.Time())
	}
	w, i := tr.OperatingPoint()
	if w != 100 || i != 0 {
		t.Errorf("OperatingPoint = (%g, %g)", w, i)
	}
	if len(tr.Temperatures()) != m.NumNodes() {
		t.Error("temperature vector length mismatch")
	}
}

func TestTransientEnergyRamp(t *testing.T) {
	// Large backward-Euler steps must remain stable (no oscillation): the
	// field should approach steady state monotonically from ambient even
	// with a 50 s step.
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	tr, err := m.NewTransient(units.RPMToRadPerSec(3000), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := tr.Step(50)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := tr.Step(50)
	if err != nil {
		t.Fatal(err)
	}
	if t2 < t1-1e-6 {
		t.Errorf("temperature oscillated with large steps: %g then %g", t1, t2)
	}
	ss, err := m.Evaluate(units.RPMToRadPerSec(3000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if t2 > ss.MaxChipTemp+0.5 {
		t.Errorf("transient overshot steady state: %g vs %g", t2, ss.MaxChipTemp)
	}
}
