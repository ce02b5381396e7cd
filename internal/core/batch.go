package core

import (
	"context"

	"oftec/internal/backend"
	"oftec/internal/thermal"
)

// EvaluateBatchContext evaluates a block of operating points under
// zoning (nil is the one-zone deployment) through the shared cache in one
// call: hits and in-batch duplicates are classified under one lock, and
// the unique misses run as blocked multi-RHS solves when the backend has
// the BatchEvaluator capability (per-point otherwise, with the same
// answers). results[i] corresponds to ops[i].
func (s *System) EvaluateBatchContext(ctx context.Context, zoning *thermal.Zoning, ops []backend.OpPoint, warm []float64) ([]*thermal.Result, error) {
	bnd, err := s.binding(zoning)
	if err != nil {
		return nil, err
	}
	return bnd.EvaluateBatch(ctx, ops, warm)
}

// SupportsBatch reports whether the system's backend has the
// BatchEvaluator capability.
func (s *System) SupportsBatch() bool {
	_, ok := s.ev.(backend.BatchEvaluator)
	return ok
}
