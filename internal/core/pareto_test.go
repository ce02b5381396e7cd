package core

import (
	"testing"

	"oftec/internal/units"
)

func TestParetoFrontShape(t *testing.T) {
	s := benchSystem(t, "Quicksort")
	thresholds := []float64{
		units.CToK(95), units.CToK(90), units.CToK(85), units.CToK(80), units.CToK(60),
	}
	front, err := s.ParetoFront(thresholds, Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != len(thresholds) {
		t.Fatalf("got %d points", len(front))
	}
	// Points come back in descending threshold order.
	for i := 1; i < len(front); i++ {
		if front[i].TMax >= front[i-1].TMax {
			t.Fatalf("thresholds not descending: %v then %v", front[i-1].TMax, front[i].TMax)
		}
	}
	// Monotone trade-off: tighter feasible thresholds cost at least as
	// much power (small solver slack allowed).
	var prev *ParetoPoint
	feasibleCount := 0
	for i := range front {
		p := &front[i]
		if !p.Feasible {
			continue
		}
		feasibleCount++
		if p.MaxTemp >= p.TMax {
			t.Errorf("threshold %g: achieved %g not strictly below", p.TMax, p.MaxTemp)
		}
		if prev != nil && p.Power < prev.Power-0.2 {
			t.Errorf("power not monotone: %g W at T_max=%g after %g W at %g",
				p.Power, p.TMax, prev.Power, prev.TMax)
		}
		prev = p
	}
	if feasibleCount < 2 {
		t.Fatalf("only %d feasible points; sweep too tight to be informative", feasibleCount)
	}
	// 60 °C is below what Quicksort can reach with any cooling: the sweep
	// must report it infeasible.
	if front[len(front)-1].Feasible {
		t.Error("60 °C threshold unexpectedly feasible")
	}
}

func TestParetoFrontValidation(t *testing.T) {
	s := benchSystem(t, "CRC32")
	if _, err := s.ParetoFront(nil, Options{}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := s.ParetoFront([]float64{300}, Options{}); err == nil {
		t.Error("threshold below ambient accepted")
	}
}

func TestTMaxOverride(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	strict, err := s.Run(Options{Mode: ModeHybrid, TMax: units.CToK(60)})
	if err != nil {
		t.Fatal(err)
	}
	if !strict.Feasible {
		t.Fatalf("60 °C should be reachable for Basicmath: %v", strict)
	}
	if strict.Result.MaxChipTemp >= units.CToK(60) {
		t.Errorf("override ignored: Tmax = %g", units.KToC(strict.Result.MaxChipTemp))
	}
	loose, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if strict.CoolingPower() < loose.CoolingPower()-1e-6 {
		t.Errorf("stricter threshold cheaper (%g W) than default (%g W)",
			strict.CoolingPower(), loose.CoolingPower())
	}
}
