package evalcache

import (
	"context"

	"oftec/internal/backend"
	"oftec/internal/thermal"
)

// EvaluateBatch resolves a block of operating points through the cache in
// one pass. Every point is classified — hit, coalesced wait, or miss — by
// the claim step Evaluate uses, under a single lock acquisition, then
// every unique miss is solved through the wrapped backend's
// BatchEvaluator capability when it has one (blocked multi-RHS solves)
// and per-point otherwise. The per-index contract is the same as calling
// Evaluate for each op. A duplicate inside the batch claims a wait on the
// batch's own miss; waits are joined only after the batch's misses are
// finished, so a duplicate reads its twin's finished rendezvous and never
// parks on a channel — a batch can never wait on itself.
//
// Results are filled per index; any error — a failed solve, a cancelled
// wait on another caller's in-flight point — fails the whole batch, like
// backend.BatchEvaluator does.
func (b *Binding) EvaluateBatch(ctx context.Context, ops []backend.OpPoint, warm []float64) ([]*thermal.Result, error) {
	out := make([]*thermal.Result, len(ops))
	if len(ops) == 0 {
		return out, nil
	}

	type claim struct {
		idx int
		fl  *inflight
	}
	var misses, waits []claim
	c := b.c
	c.mu.Lock()
	c.stats.Batches++
	c.stats.BatchPoints += int64(len(ops))
	for i, op := range ops {
		c.keyLocked(b.space, op)
		res, fl, miss := c.claimLocked(true)
		switch {
		case fl == nil:
			out[i] = res
		case miss:
			misses = append(misses, claim{idx: i, fl: fl})
		default:
			waits = append(waits, claim{idx: i, fl: fl})
		}
	}
	hook := c.hook
	c.mu.Unlock()

	var solveErr error
	if len(misses) > 0 {
		if hook != nil {
			for _, mc := range misses {
				hook(ops[mc.idx])
			}
		}
		if be, ok := b.ev.(backend.BatchEvaluator); ok {
			missOps := make([]backend.OpPoint, len(misses))
			for j, mc := range misses {
				missOps[j] = ops[mc.idx]
			}
			res, err := be.EvaluateBatch(ctx, missOps, warm)
			if err != nil {
				solveErr = err
				for _, mc := range misses {
					mc.fl.err = err
				}
			} else {
				for j, mc := range misses {
					mc.fl.res = res[j]
				}
			}
		} else {
			for _, mc := range misses {
				if solveErr != nil {
					// The batch is already failing; release the remaining
					// rendezvous without more solves.
					mc.fl.err = solveErr
					continue
				}
				mc.fl.res, mc.fl.err = b.ev.Evaluate(ctx, ops[mc.idx], warm)
				solveErr = mc.fl.err
			}
		}

		c.mu.Lock()
		for _, mc := range misses {
			c.finishLocked(mc.fl)
		}
		c.mu.Unlock()
		for _, mc := range misses {
			close(mc.fl.done)
			out[mc.idx] = mc.fl.res
		}
	}

	// Join the waits last, so this batch's own work is already done while
	// we park on other callers' solves.
	for _, wc := range waits {
		res, err := waitInflight(ctx, wc.fl)
		if err != nil {
			if solveErr == nil {
				solveErr = err
			}
			continue
		}
		out[wc.idx] = res
	}
	if solveErr != nil {
		return nil, solveErr
	}
	return out, nil
}
