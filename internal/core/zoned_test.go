package core

import (
	"math"
	"testing"

	"oftec/internal/thermal"
)

func TestZoningValidation(t *testing.T) {
	s := benchSystem(t, "CRC32")
	m := testModelOf(t, s)

	assign, n := ClusterZones()
	if _, err := m.NewZoning(assign, n); err != nil {
		t.Fatalf("canonical zoning rejected: %v", err)
	}
	if _, err := m.NewZoning(assign, 0); err == nil {
		t.Error("zero zones accepted")
	}
	// Missing a unit.
	incomplete := map[string]int{"L2": 0}
	if _, err := m.NewZoning(incomplete, 1); err == nil {
		t.Error("incomplete assignment accepted")
	}
	// Out-of-range zone.
	bad := map[string]int{}
	for k := range assign {
		bad[k] = 0
	}
	bad["IntExec"] = 7
	if _, err := m.NewZoning(bad, 3); err == nil {
		t.Error("out-of-range zone accepted")
	}
	// Unknown unit in the map.
	withGhost := map[string]int{}
	for k, v := range assign {
		withGhost[k] = v
	}
	withGhost["Ghost"] = 0
	if _, err := m.NewZoning(withGhost, n); err == nil {
		t.Error("unknown unit accepted")
	}
	// A zone with no TEC modules: put the whole die in zone 0 but declare
	// two zones.
	allZero := map[string]int{}
	for k := range assign {
		allZero[k] = 0
	}
	if _, err := m.NewZoning(allZero, 2); err == nil {
		t.Error("empty zone accepted")
	}
}

func TestZonedUniformMatchesScalarPath(t *testing.T) {
	// With every zone at the same current, the zoned solve must agree with
	// the scalar evaluation exactly.
	s := benchSystem(t, "FFT")
	m := testModelOf(t, s)
	assign, n := ClusterZones()
	z, err := m.NewZoning(assign, n)
	if err != nil {
		t.Fatal(err)
	}
	omega := 260.0
	scalar, err := m.Evaluate(omega, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	zoned, err := m.EvaluateWarm(z, thermal.Point{Omega: omega, Currents: []float64{1.5, 1.5, 1.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(scalar.MaxChipTemp - zoned.MaxChipTemp); d > 1e-6 {
		t.Errorf("uniform zoned Tmax differs by %g K", d)
	}
	if d := math.Abs(scalar.PTEC - zoned.PTEC); d > 1e-6 {
		t.Errorf("uniform zoned PTEC differs by %g W", d)
	}
}

func TestZonedEvaluateValidation(t *testing.T) {
	s := benchSystem(t, "CRC32")
	m := testModelOf(t, s)
	assign, n := ClusterZones()
	z, err := m.NewZoning(assign, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateWarm(nil, thermal.Point{Omega: 100, Currents: []float64{1, 1, 1}}, nil); err == nil {
		t.Error("zone currents accepted without a zoning")
	}
	if _, err := m.EvaluateWarm(z, thermal.Point{Omega: 100, Currents: []float64{1}}, nil); err == nil {
		t.Error("wrong current count accepted")
	}
	if _, err := m.EvaluateWarm(z, thermal.Point{Omega: 100, Currents: []float64{1, -1, 1}}, nil); err == nil {
		t.Error("negative zone current accepted")
	}
}

func TestZonedControlBeatsUniform(t *testing.T) {
	// The k=1 deployment is a restriction of the zoned space, so zoned
	// OFTEC must match or beat the scalar controller on a hot benchmark
	// whose heat concentrates in one zone.
	s := benchSystem(t, "Quicksort")
	uniform, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if !uniform.Feasible {
		t.Fatal("uniform OFTEC infeasible")
	}

	assign, n := ClusterZones()
	z, err := testModelOf(t, s).NewZoning(assign, n)
	if err != nil {
		t.Fatal(err)
	}
	zoned, err := s.RunZoned(z, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !zoned.Feasible {
		t.Fatalf("zoned OFTEC infeasible: %v", zoned)
	}
	if zoned.CoolingPower() > uniform.CoolingPower()+0.3 {
		t.Errorf("zoned 𝒫 = %.2f W worse than uniform %.2f W",
			zoned.CoolingPower(), uniform.CoolingPower())
	}
	// The integer-cluster zone must carry the largest current: that is
	// where Quicksort's hot spots are.
	intZone := 2
	for zidx, cur := range zoned.Currents {
		if zidx != intZone && cur > zoned.Currents[intZone]+1e-6 {
			t.Errorf("zone %d current %.2f exceeds the hot zone's %.2f",
				zidx, cur, zoned.Currents[intZone])
		}
	}
	if zoned.String() == "" {
		t.Error("empty String()")
	}
}
