package backend

import (
	"context"
	"fmt"
	"sync"

	"oftec/internal/power"
	"oftec/internal/thermal"
)

// Full is the exact backend: every evaluation is the sparse steady-state
// solve of the complete thermal network (with the model's own result
// memo underneath). It is the authoritative end of every fall-through
// chain.
type Full struct {
	fullEval

	// name is the registry name the backend reports; empty means "full".
	// Registry variants that are a Full over a re-actuated model
	// ("liquid", "package") keep their registered name visible in
	// reports and the serve pool without a capability-hiding wrapper.
	name string

	// The ROM sibling is built lazily, once; construction costs a few
	// dozen snapshot solves, so a caller that never selects "rom" never
	// pays for it.
	romOnce sync.Once
	rom     Evaluator
	romErr  error
}

// NewFull wraps an assembled thermal model as the exact backend.
func NewFull(m *thermal.Model) *Full { return &Full{fullEval: fullEval{m: m}} }

// Renamed sets the registry name the backend reports and returns it;
// used by registry variants built over a re-actuated model.
func (f *Full) Renamed(name string) *Full {
	f.name = name
	return f
}

// Name identifies the backend.
func (f *Full) Name() string {
	if f.name != "" {
		return f.name
	}
	return "full"
}

// EvaluateExact verifies a scalar point with the exact exponential
// leakage model.
func (f *Full) EvaluateExact(omega, itec float64) (*thermal.Result, error) {
	return f.m.EvaluateExact(omega, itec)
}

// NewTransient starts a transient simulation from t0.
func (f *Full) NewTransient(omega, itec float64, t0 []float64) (Transient, error) {
	return f.m.NewTransient(omega, itec, t0)
}

// SetDynamicPower replaces the workload's dynamic power input.
func (f *Full) SetDynamicPower(dyn power.Map) error { return f.m.SetDynamicPower(dyn) }

// DynamicPowerTotal returns the summed dynamic power in watts.
func (f *Full) DynamicPowerTotal() float64 { return f.m.DynamicPowerTotal() }

// InstantaneousPowers accounts leakage and TEC power for an arbitrary
// temperature field.
func (f *Full) InstantaneousPowers(temps []float64, itec float64) (leak, tec float64, err error) {
	return f.m.InstantaneousPowers(temps, itec)
}

// NewZoning builds a validated zone assignment over the model's grid.
func (f *Full) NewZoning(assign map[string]int, numZones int) (*thermal.Zoning, error) {
	return f.m.NewZoning(assign, numZones)
}

// WithZoning returns an evaluator for zoned operating points: OpPoint
// carries one current per zone of z.
func (f *Full) WithZoning(z *thermal.Zoning) (Evaluator, error) {
	if z == nil {
		return nil, fmt.Errorf("backend: nil zoning")
	}
	return &zonedFull{fullEval{m: f.m, z: z}}, nil
}

// Select returns the named sibling backend over the same model.
func (f *Full) Select(name string) (Evaluator, error) {
	switch name {
	case "", "full":
		return f, nil
	case "rom":
		f.romOnce.Do(func() {
			f.rom, f.romErr = NewROM(f)
		})
		return f.rom, f.romErr
	default:
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
}

// zonedFull is the full backend under a zoning from WithZoning: its
// OpPoint.Currents carry one current per zone.
type zonedFull struct{ fullEval }

func (*zonedFull) Name() string { return "full/zoned" }

// fullEval is the exact evaluation of the complete network under zoning z
// (nil is the paper's one-zone deployment) — the one implementation of
// every evaluation verb that Full and its zoned evaluators share. The
// thermal layer treats every one-zone zoning as the nil zoning, so k=1
// zoned evaluation is bit-identical to unzoned evaluation.
type fullEval struct {
	m *thermal.Model
	z *thermal.Zoning
}

// Config returns the underlying model's configuration.
func (e fullEval) Config() thermal.Config { return e.m.Config() }

// Model exposes the underlying model for cmd-level reporting.
func (e fullEval) Model() *thermal.Model { return e.m }

// Evaluate computes the exact steady state.
func (e fullEval) Evaluate(_ context.Context, op OpPoint, warm []float64) (*thermal.Result, error) {
	if err := op.validate(); err != nil {
		return nil, err
	}
	return e.m.EvaluateWarm(e.z, thermal.Point(op), warm)
}

// EvaluateBatch evaluates operating points as blocked multi-RHS solves on
// the full model, grouped by fan speed.
func (e fullEval) EvaluateBatch(ctx context.Context, ops []OpPoint, warm []float64) ([]*thermal.Result, error) {
	pts := make([]thermal.Point, len(ops))
	for i, op := range ops {
		if err := op.validate(); err != nil {
			return nil, err
		}
		pts[i] = thermal.Point(op)
	}
	return e.m.EvaluateBatch(ctx, e.z, pts, warm)
}

// EvaluateGrad computes the adjoint gradient on the full model; PowerGrad
// and TempGrad have length 1+k ordered (ω, I₁..I_k).
func (e fullEval) EvaluateGrad(_ context.Context, op OpPoint) (*thermal.Gradient, error) {
	if err := op.validate(); err != nil {
		return nil, err
	}
	return e.m.EvaluateGrad(e.z, thermal.Point(op))
}
