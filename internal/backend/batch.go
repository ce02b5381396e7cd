package backend

import (
	"context"
	"sync/atomic"

	"oftec/internal/thermal"
)

// BatchEvaluator is the optional capability of evaluating a block of
// operating points in one call. Implementations share per-batch work —
// one assembly and one preconditioner factorization per distinct fan
// speed, blocked multi-RHS triangular sweeps — but the contract is purely
// about performance: results[i] must be exactly what Evaluate(ctx,
// ops[i], warm') would return under the batch's warm-start protocol
// (within each ω-group the first point's solution seeds the rest when
// warm is nil). Callers probe for it with a type assertion and fall back
// to per-point Evaluate when absent.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, ops []OpPoint, warm []float64) ([]*thermal.Result, error)
}

// romCacheDir is the process-wide ROM basis cache directory, consulted
// whenever a reduced backend is built through Select("rom") or the "rom"
// registry factory. It is package state because the Factory signature is
// fixed at (model) → Plant; cmds set it once at startup before any
// backend construction.
var romCacheDir atomic.Value

// SetROMCacheDir sets the directory used to persist and load ROM bases.
// Empty (the default) disables persistence.
func SetROMCacheDir(dir string) { romCacheDir.Store(dir) }

// ROMCacheDir returns the configured ROM basis cache directory.
func ROMCacheDir() string {
	dir, _ := romCacheDir.Load().(string)
	return dir
}

// EvaluateBatch answers each scalar point from the reduced model when it
// stays inside its error bound and batches every miss into one blocked
// full-model solve, preserving the per-index result contract.
func (r *ROM) EvaluateBatch(ctx context.Context, ops []OpPoint, warm []float64) ([]*thermal.Result, error) {
	out := make([]*thermal.Result, len(ops))
	var missIdx []int
	var missOps []OpPoint
	for i, op := range ops {
		if err := op.validate(); err != nil {
			return nil, err
		}
		if op.K() == 1 {
			res, ok, err := r.rm.Evaluate(op.Omega, op.Currents[0])
			if err != nil {
				return nil, err
			}
			if ok {
				out[i] = res
				continue
			}
		}
		missIdx = append(missIdx, i)
		missOps = append(missOps, op)
	}
	if len(missOps) > 0 {
		full, err := r.full.EvaluateBatch(ctx, missOps, warm)
		if err != nil {
			return nil, err
		}
		for j, i := range missIdx {
			out[i] = full[j]
		}
	}
	return out, nil
}
