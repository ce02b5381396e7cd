package core

import (
	"reflect"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/coolant"
	"oftec/internal/thermal"
	"oftec/internal/workload"
)

// seamSystem builds a system over the full backend with the given config.
func seamSystem(t *testing.T, cfg thermal.Config, bench string) *System {
	t.Helper()
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
	return NewSystem(backend.NewFull(m))
}

// TestTableTwoModesIdenticalThroughSeam is the air-equivalence acceptance
// bar at the controller level: every Table-2 mode (OFTEC, Var. ω, Fixed ω,
// TEC only) run through the coolant seam with an explicit air spec must be
// DeepEqual-identical to the same run on a nil-coolant (pre-seam fan path)
// configuration — operating point, steady state, solver reports, all of it.
func TestTableTwoModesIdenticalThroughSeam(t *testing.T) {
	nilSys := seamSystem(t, testConfig(), "Basicmath")
	airCfg := testConfig()
	airCfg.Coolant = &coolant.Spec{Kind: coolant.KindAir}
	airSys := seamSystem(t, airCfg, "Basicmath")

	for _, mode := range []Mode{ModeHybrid, ModeVariableFan, ModeFixedFan, ModeTECOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := Options{Mode: mode, Method: MethodSQP}
			a, errA := nilSys.Run(opts)
			b, errB := airSys.Run(opts)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("error mismatch: nil-coolant %v, air-spec %v", errA, errB)
			}
			if errA != nil {
				return // both fail identically — nothing more to compare
			}
			// Wall-clock is the only field allowed to differ.
			a.Runtime, b.Runtime = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("mode %s: air-spec outcome differs from nil-coolant outcome\n nil: %+v\n air: %+v", mode, a, b)
			}
		})
	}
}
