package thermal

import (
	"context"
	"fmt"

	"oftec/internal/sparse"
)

// This file is the batched steady-state evaluator. Bulk workloads —
// surface sweeps, Pareto probes, ROM snapshot collection — evaluate many
// operating points whose systems share one ω-slice of the conductance
// matrix and differ only in the TEC diagonal/RHS terms. EvaluateBatch
// assembles the canonical slice system once, expresses each point as a
// set of per-column diagonal overrides plus an RHS patch, and hands
// width-8 chunks to sparse.CGPrecondBatch under the shared slice
// preconditioner.
//
// The batched path is a pure performance transform: per column the
// assembly patches use the same floating-point statement shapes as
// assembleInto and the lockstep CG replicates CGPrecond bit-for-bit, so
// a batched result is reflect.DeepEqual to the per-point result from the
// same seed (the equivalence suite pins this). A column the lockstep
// solve cannot finish (breakdown, iteration budget) falls back to the
// per-point path, which reproduces the identical failure and proceeds down
// the full SolveAuto ladder exactly as a per-point call would.

// batchWidth is the lockstep column count: wide enough to amortize the
// per-iteration pattern walk over a cache line of float64 columns,
// narrow enough that the interleaved working set stays in cache.
const batchWidth = 8

// EvaluateBatch computes the steady state at every operating point under
// zoning z (nil is the one-zone deployment), solving memo misses in
// lockstep chunks that share one assembly and one IC(0) factorization per
// ω-slice. Results are positionally aligned with pts and identical —
// reflect.DeepEqual, including SolveStats — to what per-point EvaluateWarm
// calls would return: with warm == nil the first point of each ω-group
// seeds from ambient and the rest seed from its solution (the sweep
// warm-start carry); with warm set every point seeds from it. ctx is
// checked between chunks; cancellation returns ctx.Err() with no results.
func (m *Model) EvaluateBatch(ctx context.Context, z *Zoning, pts []Point, warm []float64) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	z = m.zoningOr(z)
	maxCur := make([]float64, len(pts))
	for i, p := range pts {
		c, err := m.checkPoint(z, p)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		maxCur[i] = c
	}
	if err := m.checkWarm(warm); err != nil {
		return nil, err
	}
	results := make([]*Result, len(pts))
	if len(pts) == 0 {
		return results, nil
	}

	for _, g := range groupByOmega(len(pts), func(i int) float64 { return pts[i].Omega }) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Seed: the sweep warm-start carry. The first point of the group
		// solves per-point from ambient (or answers from the memo) and its
		// field seeds the siblings; an explicit warm seeds everything.
		seed := warm
		rest := g
		if warm == nil {
			res, err := m.EvaluateWarm(z, pts[g[0]], nil)
			if err != nil {
				return nil, err
			}
			results[g[0]] = res
			if !res.Runaway {
				seed = res.T
			}
			rest = g[1:]
		}
		if err := m.evaluateGroup(ctx, z, pts[g[0]].Omega, pts, maxCur, rest, seed, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// groupByOmega partitions point indices by ω in first-appearance order,
// keeping submission order within each group — the order the per-point
// reference path would visit them in a row-major sweep.
func groupByOmega(n int, omegaOf func(int) float64) [][]int {
	var order []float64
	groups := make(map[float64][]int)
	for i := 0; i < n; i++ {
		w := omegaOf(i)
		if _, ok := groups[w]; !ok {
			order = append(order, w)
		}
		groups[w] = append(groups[w], i)
	}
	out := make([][]int, 0, len(order))
	for _, w := range order {
		out = append(out, groups[w])
	}
	return out
}

// evaluateGroup solves the memo misses among the points idxs of pts, all
// at fan speed omega, in lockstep chunks. A column the lockstep path could
// not finish is re-solved per-point from the same seed.
func (m *Model) evaluateGroup(ctx context.Context, z *Zoning, omega float64, pts []Point, maxCur []float64, idxs []int, seed []float64, results []*Result) error {
	ic, icOK := m.slicePrecond(omega)

	// One canonical assembly for the whole group: the I_TEC = 0 system.
	// Chunks only read sc.vals/sc.rhs; per-point terms live in the
	// override and RHS buffers below.
	sc := m.getScratch()
	defer m.putScratch(sc)
	sparse.Fill(sc.cur, 0)
	m.assembleInto(sc, omega, sc.cell, true, nil)

	ws := sparse.GetBatchWorkspace()
	defer sparse.PutBatchWorkspace(ws)
	b := make([]float64, m.n*batchWidth)
	x0 := make([]float64, m.n*batchWidth)

	// Override backing store: cold rows then hot rows, cells ascending —
	// strictly ascending node order (the cold plane sits below the hot
	// plane in the stack).
	covered := make([]int, 0, len(m.tecAlpha))
	for i, alpha := range m.tecAlpha {
		if alpha != 0 {
			covered = append(covered, i)
		}
	}
	ovs := make([]sparse.DiagOverride, 0, 2*len(covered))
	for _, pass := range []int{planeTECCold, planeTECHot} {
		for _, cell := range covered {
			row := m.node(pass, cell)
			ovs = append(ovs, sparse.DiagOverride{
				Row:  int32(row),
				K:    m.diagIdx[row],
				Vals: make([]float64, batchWidth),
			})
		}
	}

	var chunk []int
	for start := 0; start < len(idxs); start += batchWidth {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk = chunk[:0]
		for _, pi := range idxs[start:min(start+batchWidth, len(idxs))] {
			if res, ok := m.loadResult(m.solutionVersion(z, pts[pi])); ok {
				results[pi] = res
				continue
			}
			chunk = append(chunk, pi)
		}
		if len(chunk) == 0 {
			continue
		}
		if !icOK {
			// No slice factorization (matrix not SPD enough): the lockstep
			// rung is unavailable, so every point takes the per-point
			// ladder — the same one it would have taken solo.
			for _, pi := range chunk {
				res, err := m.EvaluateWarm(z, pts[pi], seed)
				if err != nil {
					return err
				}
				results[pi] = res
			}
			continue
		}
		w := len(chunk)

		// Pad a wide-enough partial chunk to the full lockstep width by
		// duplicating its final column. Pads run identical arithmetic to
		// their twin so they freeze on the same iteration and cost no
		// extra sweeps; what they buy is the width-8 specialized kernels,
		// which are cheaper per column than the generic path whenever
		// most of the width is real work. Narrow chunks (memo-riddled
		// rows) stay generic — there padding would outweigh the win.
		wp := w
		if w < batchWidth && 2*w > batchWidth {
			wp = batchWidth
		}

		// Per-column override values, with the per-point statement shape
		// (base + α·I / base − α·I; I = 0 leaves the canonical value bits).
		nCov := len(covered)
		for ci, cell := range covered {
			alpha := m.tecAlpha[cell]
			cold := &ovs[ci]
			hot := &ovs[nCov+ci]
			cbase := sc.vals[cold.K]
			hbase := sc.vals[hot.K]
			cold.Vals = cold.Vals[:wp]
			hot.Vals = hot.Vals[:wp]
			for j, pi := range chunk {
				iTEC := pts[pi].Currents[z.zoneOf[cell]]
				cv, hv := cbase, hbase
				if iTEC != 0 {
					cv = cbase + alpha*iTEC
					hv = hbase - alpha*iTEC
				}
				cold.Vals[j] = cv
				hot.Vals[j] = hv
			}
			for j := w; j < wp; j++ {
				cold.Vals[j] = cold.Vals[w-1]
				hot.Vals[j] = hot.Vals[w-1]
			}
		}

		// Interleaved RHS: the canonical slice RHS broadcast per column,
		// plus each point's Joule injection at the gen plane.
		bw := b[:m.n*wp]
		for i := 0; i < m.n; i++ {
			base := sc.rhs[i]
			row := bw[i*wp : i*wp+wp]
			for j := range row {
				row[j] = base
			}
		}
		for _, cell := range covered {
			mid := m.node(planeTECMid, cell)
			row := bw[mid*wp : mid*wp+wp]
			for j, pi := range chunk {
				iTEC := pts[pi].Currents[z.zoneOf[cell]]
				if iTEC != 0 {
					row[j] += m.tecR[cell] * iTEC * iTEC
				}
			}
			for j := w; j < wp; j++ {
				row[j] = row[w-1]
			}
		}

		// Interleaved start: every column from the group seed (ambient
		// when the group has none — the per-point nil-warm fill).
		x0w := x0[:m.n*wp]
		if seed != nil {
			for i := 0; i < m.n; i++ {
				s := seed[i]
				col := x0w[i*wp : i*wp+wp]
				for j := range col {
					col[j] = s
				}
			}
		} else {
			for i := range x0w {
				x0w[i] = m.cfg.Ambient
			}
		}

		opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n}
		sols, stats, ok, err := sparse.CGPrecondBatch(sc.mat, ovs[:2*nCov], bw, x0w, ic, wp, opts, ws)
		if err != nil {
			return err
		}
		for j, pi := range chunk {
			if ok[j] {
				// The chunk's canonical assembly is done, so sc.cur is free
				// to carry this column's per-cell current into the result.
				sc.loadCurrents(z, pts[pi].Currents)
				res := m.linearResult(omega, maxCur[pi], sc.cell, sols[j], stats[j], nil)
				m.storeResult(m.solutionVersion(z, pts[pi]), res)
				results[pi] = res
				continue
			}
			// Lockstep rung failed for this column: re-solve per-point
			// from the same seed. The first CG rung reproduces the same
			// failure and the ladder continues exactly as a solo call.
			res, err := m.EvaluateWarm(z, pts[pi], seed)
			if err != nil {
				return err
			}
			results[pi] = res
		}
	}
	return nil
}
