package backend

import (
	"context"
	"testing"

	"oftec/internal/thermal"
)

// TestGradientOfCapabilityChain pins the capability probe: the full
// backend (scalar and zoned) offers adjoint gradients directly, the ROM
// resolves through its fall-through chain to the full sibling, and the
// gradients the chain hands back are the model's own.
func TestGradientOfCapabilityChain(t *testing.T) {
	p := testPlant(t, "full", "CRC32")
	full := p.(*Full)

	ge, ok := GradientOf(full)
	if !ok {
		t.Fatal("full backend does not offer gradients")
	}
	g, err := ge.EvaluateGrad(context.Background(), Scalar(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Model().EvaluateGrad(nil, thermal.Point(Scalar(200, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Result != want.Result || g.PowerGrad[0] != want.PowerGrad[0] {
		t.Error("full backend gradient is not the model's gradient")
	}
	if len(g.PowerGrad) != 2 || len(g.TempGrad) != 2 {
		t.Fatalf("scalar gradient has lengths %d/%d, want 2", len(g.PowerGrad), len(g.TempGrad))
	}

	// Zoned capability: a k-zone point yields a (1+k)-component gradient.
	assign := map[string]int{}
	for _, u := range full.Config().Floorplan.Units() {
		assign[u.Name] = 0
	}
	z, err := full.NewZoning(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	zev, err := full.WithZoning(z)
	if err != nil {
		t.Fatal(err)
	}
	zge, ok := GradientOf(zev)
	if !ok {
		t.Fatal("zoned full backend does not offer gradients")
	}
	zg, err := zge.EvaluateGrad(context.Background(), OpPoint{Omega: 200, Currents: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if zg.Result != want.Result {
		t.Error("single-zone gradient did not share the scalar memo entry")
	}

	// The ROM cannot differentiate its reduced system; the probe must
	// resolve to the full sibling, not fail.
	rom, err := full.Select("rom")
	if err != nil {
		t.Fatal(err)
	}
	if _, isDirect := rom.(GradEvaluator); isDirect {
		t.Fatal("ROM claims direct gradient capability; the adjoint is only exact on the full system")
	}
	rge, ok := GradientOf(rom)
	if !ok {
		t.Fatal("GradientOf did not fall through the ROM to the full backend")
	}
	rg, err := rge.EvaluateGrad(context.Background(), Scalar(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rg.Result != want.Result {
		t.Error("ROM fall-through gradient is not the full backend's")
	}

	// Malformed points are rejected.
	if _, err := ge.EvaluateGrad(context.Background(), OpPoint{Omega: 200}); err == nil {
		t.Error("empty Currents accepted")
	}
	if _, err := ge.EvaluateGrad(context.Background(), OpPoint{Omega: 200, Currents: []float64{1, 1}}); err == nil {
		t.Error("zoned gradient point accepted without zoning")
	}

	// A chain-free evaluator without the capability reports false.
	if _, ok := GradientOf(plainEvaluator{full}); ok {
		t.Error("GradientOf invented a capability on a chain-free evaluator")
	}
}

// plainEvaluator wraps an Evaluator while implementing neither
// GradEvaluator nor Fallthrough.
type plainEvaluator struct{ ev Evaluator }

func (p plainEvaluator) Name() string           { return "plain" }
func (p plainEvaluator) Config() thermal.Config { return p.ev.Config() }
func (p plainEvaluator) Evaluate(ctx context.Context, op OpPoint, warm []float64) (*thermal.Result, error) {
	return p.ev.Evaluate(ctx, op, warm)
}
