package core

import (
	"context"
	"math"
	"testing"

	"oftec/internal/backend"
)

// TestEvaluateWarmMatchesCold pins the warm-start contract: the hint only
// steers the iterative solver, so a warm-started solve agrees with the
// cold path to solver tolerance and never changes the runaway verdict.
func TestEvaluateWarmMatchesCold(t *testing.T) {
	cold := benchSystem(t, "CRC32")
	warm := benchSystem(t, "CRC32")

	ref, err := evalAt(cold, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Solve a neighboring point first, then hand its field forward.
	near, err := evalAt(warm, 210, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.EvaluateContext(context.Background(), nil, backend.Scalar(200, 1), near.T)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runaway != ref.Runaway {
		t.Fatalf("warm start changed the runaway verdict: %v vs %v", got.Runaway, ref.Runaway)
	}
	if d := math.Abs(got.MaxChipTemp - ref.MaxChipTemp); d > 1e-6 {
		t.Errorf("warm-started Tmax differs from cold by %g K", d)
	}

	// Hits ignore the hint entirely: the cached pointer comes back even
	// with a fresh warm field attached.
	again, err := warm.EvaluateContext(context.Background(), nil, backend.Scalar(200, 1), ref.T)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Error("cache hit did not return the stored result")
	}
}

// TestWarmStartRunMatchesPlain runs Algorithm 1 with and without
// Options.WarmStart on independent systems and checks the outcomes agree:
// warm starts are a solver accelerator, not a different optimizer.
func TestWarmStartRunMatchesPlain(t *testing.T) {
	plain, err := benchSystem(t, "Basicmath").Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := benchSystem(t, "Basicmath").Run(Options{Mode: ModeHybrid, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Feasible != plain.Feasible {
		t.Fatalf("feasibility differs: warm %v, plain %v", warm.Feasible, plain.Feasible)
	}
	if d := math.Abs(warm.CoolingPower() - plain.CoolingPower()); d > 0.1 {
		t.Errorf("warm-start 𝒫 differs from plain by %g W", d)
	}
	if d := math.Abs(warm.Result.MaxChipTemp - plain.Result.MaxChipTemp); d > 0.1 {
		t.Errorf("warm-start Tmax differs from plain by %g K", d)
	}
}
