package backend

import (
	"context"

	"oftec/internal/power"
	"oftec/internal/thermal"
)

// ROM is the reduced-order backend: scalar steady-state evaluations run
// through a Galerkin-projected model built once from the full model (see
// thermal.ReducedModel), and anything the ROM cannot answer within its
// advertised error bound — rejected reductions, runaway-adjacent points,
// zoned operating points — falls through to the full backend. Plant
// capabilities (transients, workload changes, power accounting) always
// act on the one shared underlying model, so a controller driving the
// plant through the ROM observes exactly the physics the full backend
// would show it.
type ROM struct {
	full *Full
	rm   *thermal.ReducedModel
}

// NewROM builds the reduced-order sibling of a full backend.
func NewROM(full *Full) (*ROM, error) {
	rm, err := thermal.NewReducedModel(full.m)
	if err != nil {
		return nil, err
	}
	return &ROM{full: full, rm: rm}, nil
}

// Name identifies the backend.
func (r *ROM) Name() string { return "rom" }

// Config returns the underlying model's configuration.
func (r *ROM) Config() thermal.Config { return r.full.Config() }

// Fallthrough returns the exact backend the ROM delegates to.
func (r *ROM) Fallthrough() Evaluator { return r.full }

// ROMStats returns the reduced model's traffic counters.
func (r *ROM) ROMStats() thermal.ROMStats { return r.rm.Stats() }

// Evaluate answers scalar points from the reduced model when its error
// estimate stays inside the advertised bound, and falls through to the
// full backend otherwise (including every zoned point).
func (r *ROM) Evaluate(ctx context.Context, op OpPoint, warm []float64) (*thermal.Result, error) {
	if err := op.validate(); err != nil {
		return nil, err
	}
	if op.K() == 1 {
		res, ok, err := r.rm.Evaluate(op.Omega, op.Currents[0])
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	return r.full.Evaluate(ctx, op, warm)
}

// EvaluateExact always verifies on the full model.
func (r *ROM) EvaluateExact(omega, itec float64) (*thermal.Result, error) {
	return r.full.EvaluateExact(omega, itec)
}

// NewTransient integrates the full model — the ROM accelerates
// steady-state queries only.
func (r *ROM) NewTransient(omega, itec float64, t0 []float64) (Transient, error) {
	return r.full.NewTransient(omega, itec, t0)
}

// SetDynamicPower updates the shared model; the reduced model refreshes
// its projected RHS lazily on the next evaluation.
func (r *ROM) SetDynamicPower(dyn power.Map) error { return r.full.SetDynamicPower(dyn) }

// DynamicPowerTotal returns the summed dynamic power in watts.
func (r *ROM) DynamicPowerTotal() float64 { return r.full.DynamicPowerTotal() }

// InstantaneousPowers accounts leakage and TEC power for an arbitrary
// temperature field.
func (r *ROM) InstantaneousPowers(temps []float64, itec float64) (leak, tec float64, err error) {
	return r.full.InstantaneousPowers(temps, itec)
}

// NewZoning builds a validated zone assignment over the model's grid.
func (r *ROM) NewZoning(assign map[string]int, numZones int) (*thermal.Zoning, error) {
	return r.full.NewZoning(assign, numZones)
}

// WithZoning delegates zoned evaluation to the full backend: zone current
// patterns are outside the reduced manifold.
func (r *ROM) WithZoning(z *thermal.Zoning) (Evaluator, error) { return r.full.WithZoning(z) }

// Select returns the named sibling backend over the same model.
func (r *ROM) Select(name string) (Evaluator, error) {
	if name == "rom" {
		return r, nil
	}
	return r.full.Select(name)
}
