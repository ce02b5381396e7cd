package core

import (
	"context"

	"oftec/internal/backend"
	"oftec/internal/solver"
	"oftec/internal/thermal"
)

// adjoint is gradient mode's source of exact derivatives. One
// backend.GradEvaluator call produces BOTH ∇𝒫 and ∇𝒯_τ (two adjoint solves
// on the already-factored system), and the thermal model memoizes the
// Gradient with its point's Result, so when the solver asks for the
// objective and constraint gradients separately at one iterate, the second
// request is a memo hit rather than another adjoint pair.
type adjoint struct {
	ge backend.GradEvaluator
}

// at returns the gradient at x, or nil when the point cannot be
// differentiated (thermal runaway, failed adjoint solve) — a nil return
// from the installed solver.GradFunc sends the solver back to finite
// differences at that point only.
func (a adjoint) at(x []float64) *thermal.Gradient {
	grad, err := a.ge.EvaluateGrad(context.Background(), backend.OpPoint{
		Omega:    x[0],
		Currents: append([]float64(nil), x[1:]...),
	})
	if err != nil {
		return nil
	}
	return grad
}

// powerGrad is the solver.GradFunc for the 𝒫 objective.
func (a adjoint) powerGrad(x []float64) []float64 {
	if grad := a.at(x); grad != nil {
		return grad.PowerGrad
	}
	return nil
}

// tempGrad is the solver.GradFunc for the smoothed 𝒯_τ objective and for
// the thermal constraint 𝒯_τ − (T_max − margin), whose constant offset
// differentiates away.
func (a adjoint) tempGrad(x []float64) []float64 {
	if grad := a.at(x); grad != nil {
		return grad.TempGrad
	}
	return nil
}

// smoothTempObj is the log-sum-exp soft maximum 𝒯_τ of the chip
// temperatures, the thermal objective gradient mode optimizes: the adjoint
// differentiates the smoothed max, so the solver must evaluate the same
// function or its line searches would disagree with its gradients. 𝒯_τ
// over-estimates the true max by at most thermal.DefaultSmoothBound
// (0.05 K, matching the optimizer's default constraint margin), so
// feasibility under the smoothed constraint implies feasibility under the
// strict one.
func smoothTempObj(eval vecEval, x []float64) float64 {
	r, err := eval(x)
	if err != nil || r.Runaway {
		return solver.Infeasible
	}
	tau := thermal.SmoothMaxTau(len(r.ChipTemps), thermal.DefaultSmoothBound)
	return thermal.SmoothMax(r.ChipTemps, tau)
}
