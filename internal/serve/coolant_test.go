package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/experiments"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// TestEvaluateLiquidCoolant drives a live request through the seam: a chip
// spec naming the liquid actuator must evaluate under the pump/cold-plate
// physics, matching a direct library evaluation of the same configuration.
func TestEvaluateLiquidCoolant(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/evaluate", EvaluateRequest{
		Chip: ChipSpec{Coolant: "liquid"}, OmegaRPM: 2000, ITecA: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decodeBody[EvaluateResponse](t, rec)

	cfg, err := ChipSpec{Coolant: "liquid"}.config()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := experiments.Setup{Config: cfg, Benchmarks: workload.All()}.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.EvaluateContext(context.Background(), nil, backend.Scalar(units.RPMToRadPerSec(2000), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runaway {
		t.Fatal("unexpected runaway under the liquid loop at 2000 RPM")
	}
	if diff := math.Abs(got.MaxTempC - units.KToC(want.MaxChipTemp)); diff > 1e-9 {
		t.Errorf("MaxTempC = %g, want %g", got.MaxTempC, units.KToC(want.MaxChipTemp))
	}
	if diff := math.Abs(got.FanW - want.PFan); diff > 1e-9 {
		t.Errorf("FanW = %g, want the pump affinity share %g", got.FanW, want.PFan)
	}

	// The pump ceiling (400 rad/s ≈ 3820 RPM) is below the fan's: a
	// command legal for air must be rejected once the chip runs liquid.
	rec = post(t, h, "/v1/evaluate", EvaluateRequest{
		Chip: ChipSpec{Coolant: "liquid"}, OmegaRPM: 5000, ITecA: 1,
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("over-ceiling pump command: status %d, want 400", rec.Code)
	}
}

// TestUnknownCoolantRejected: a typo'd coolant name is a 400 whose error
// body lists the registered names.
func TestUnknownCoolantRejected(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/evaluate", EvaluateRequest{
		Chip: ChipSpec{Coolant: "water"}, OmegaRPM: 2000,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"air", "liquid", "liquid-dc", "liquid-package"} {
		if !strings.Contains(eb.Error, name) {
			t.Errorf("error %q does not list registered coolant %q", eb.Error, name)
		}
	}
}

// TestEvaluateLiquidPackageLowFlowRunaway: at 143.24 RPM (15 rad/s) the
// liquid-package cold plate cannot hold Quicksort. The request answers
// 200 with runaway set, not a field far below ambient with a negative
// cooling power.
func TestEvaluateLiquidPackageLowFlowRunaway(t *testing.T) {
	h := New(Options{}).Handler()
	rec := post(t, h, "/v1/evaluate",
		json.RawMessage(`{"chip":{"bench":"Quicksort","coolant":"liquid-package"},"omega_rpm":143.24}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := decodeBody[EvaluateResponse](t, rec); !got.Runaway {
		t.Errorf("runaway = false: max_temp_c %g, cooling_power_w %g", got.MaxTempC, got.CoolingPowerW)
	}
}
