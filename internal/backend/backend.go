// Package backend defines the pluggable thermal-evaluation layer that
// sits between the physics (internal/thermal) and every consumer — the
// optimizer (internal/core), the DTM controllers (internal/controller),
// the experiment harness (internal/experiments), and the cmds.
//
// Consumers program against the Evaluator contract (and the optional
// capability interfaces below) instead of the concrete *thermal.Model;
// the backendleak analyzer in cmd/oftecvet enforces the seam. Concrete
// backends register themselves by name (see registry.go): "full" is the
// exact sparse steady-state solve, "rom" is the reduced-order fast path
// with automatic fall-through to full.
package backend

import (
	"context"
	"fmt"

	"oftec/internal/power"
	"oftec/internal/thermal"
)

// OpPoint is one steady-state operating point: an actuator command and one
// TEC driving current per control zone. k = len(Currents) = 1 is the
// paper's deployment (every module in series on one current); k > 1 is the
// zoned extension. The zero Currents slice is invalid — a scalar point is
// Currents of length one.
//
// Omega is the actuator command u: the fan speed ω in rad/s under the
// paper's air cooling, the pump speed under a liquid loop. The field keeps
// its historical name for compatibility.
type OpPoint struct {
	Omega    float64
	Currents []float64
}

// Scalar builds the k=1 operating point of the paper's deployment.
func Scalar(omega, itec float64) OpPoint {
	return OpPoint{Omega: omega, Currents: []float64{itec}}
}

// K returns the number of control zones.
func (op OpPoint) K() int { return len(op.Currents) }

// Evaluator is the backend contract every consumer programs against:
// compute the steady state at an operating point. warm is an optional
// temperature-field hint of length NumNodes that may steer an iterative
// solve but never the answer; implementations are free to ignore it, and
// read it only during the call, so the caller may reuse its buffer once
// Evaluate returns.
// ctx bounds the call for implementations that can wait (the shared
// evaluation cache's in-flight rendezvous); nil means no cancellation.
//
// Implementations must be safe for concurrent Evaluate calls.
type Evaluator interface {
	// Name identifies the backend ("full", "rom", or a decorated variant).
	Name() string
	// Config returns the thermal configuration the backend evaluates.
	Config() thermal.Config
	// Evaluate computes the steady state at op. Thermal runaway is a
	// Result with Runaway set, not an error; errors mean the operating
	// point or the call itself was invalid.
	Evaluate(ctx context.Context, op OpPoint, warm []float64) (*thermal.Result, error)
}

// Transient is one transient thermal simulation, structurally satisfied
// by *thermal.Transient.
type Transient interface {
	Time() float64
	OperatingPoint() (omega, itec float64)
	SetOperatingPoint(omega, itec float64) error
	Temperatures() []float64
	ChipState() (maxTemp float64, temps []float64)
	Step(dt float64) (float64, error)
	SteadyStateGap() (float64, error)
}

// Plant extends Evaluator with the capabilities DTM controllers need:
// transient integration, workload changes, and instantaneous power
// accounting along a trajectory. Registered backends are Plants.
type Plant interface {
	Evaluator
	NewTransient(omega, itec float64, t0 []float64) (Transient, error)
	SetDynamicPower(dyn power.Map) error
	DynamicPowerTotal() float64
	InstantaneousPowers(temps []float64, itec float64) (leak, tec float64, err error)
}

// ExactEvaluator is the capability of verifying a scalar operating point
// with the exact exponential leakage model (Outcome.ExactResult).
type ExactEvaluator interface {
	EvaluateExact(omega, itec float64) (*thermal.Result, error)
}

// Selector is the capability of switching backends over the same
// underlying physics: Select("rom") on a full backend returns (building
// lazily, at most once) its reduced-order sibling and vice versa.
type Selector interface {
	Select(name string) (Evaluator, error)
}

// Zoner is the capability of evaluating zoned (k > 1) operating points:
// WithZoning returns an Evaluator whose OpPoint.Currents are per-zone.
type Zoner interface {
	WithZoning(z *thermal.Zoning) (Evaluator, error)
	NewZoning(assign map[string]int, numZones int) (*thermal.Zoning, error)
}

// Fallthrough is implemented by backends that delegate rejected or
// unsupported evaluations to another evaluator (the ROM's full sibling,
// a cache's underlying backend). Authoritative walks the chain.
type Fallthrough interface {
	Fallthrough() Evaluator
}

// Authoritative returns the evaluator at the end of ev's fall-through
// chain — the one whose answers are exact and final. Optimizer finishes
// verify their chosen operating point against it so an approximate
// backend can never certify its own result.
func Authoritative(ev Evaluator) Evaluator {
	for {
		f, ok := ev.(Fallthrough)
		if !ok {
			return ev
		}
		next := f.Fallthrough()
		if next == nil || next == ev {
			return ev
		}
		ev = next
	}
}

// ModelProvider exposes the underlying *thermal.Model for callers outside
// the decoupled layers (cmds, benchmarks) that need model-only reporting
// such as heatmaps or hottest-unit lookups.
type ModelProvider interface {
	Model() *thermal.Model
}

// ModelOf walks ev's fall-through chain and returns the first underlying
// *thermal.Model it finds.
func ModelOf(ev Evaluator) (*thermal.Model, bool) {
	for ev != nil {
		if p, ok := ev.(ModelProvider); ok {
			return p.Model(), true
		}
		f, ok := ev.(Fallthrough)
		if !ok {
			return nil, false
		}
		next := f.Fallthrough()
		if next == ev {
			return nil, false
		}
		ev = next
	}
	return nil, false
}

// validate rejects malformed operating points before they reach a
// concrete backend.
func (op OpPoint) validate() error {
	if len(op.Currents) == 0 {
		return fmt.Errorf("backend: operating point has no currents (scalar points use Currents of length 1)")
	}
	return nil
}
