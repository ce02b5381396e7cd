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
// sparse.BatchWidth-wide chunks to sparse.CGPrecondBatch under the shared
// slice preconditioner.
//
// The batched path is a pure performance transform: per column the
// assembly patches use the same floating-point statement shapes as
// assembleInto and the lockstep CG replicates CGPrecond bit-for-bit, so
// a batched result is reflect.DeepEqual to the per-point result from the
// same seed (the equivalence suite pins this). A failed column is final:
// the lockstep solve reports the Stats a per-point CGPrecond fails with
// (breakdown, iteration budget, or a slice that does not factor), and the
// point is runaway with them, exactly as a per-point call reports it.

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
// at fan speed omega, in lockstep chunks.
func (m *Model) evaluateGroup(ctx context.Context, z *Zoning, omega float64, pts []Point, maxCur []float64, idxs []int, seed []float64, results []*Result) error {
	ic := m.slicePrecond(omega)

	// One canonical assembly for the whole group: the I_TEC = 0 system.
	// Chunks only read sc.vals/sc.rhs; per-point terms live in the
	// override and RHS buffers below.
	sc := m.getScratch()
	defer m.putScratch(sc)
	m.assembleSlice(sc, omega)

	ws := sparse.GetBatchWorkspace()
	defer sparse.PutBatchWorkspace(ws)
	const bw = sparse.BatchWidth
	b := make([]float64, m.n*bw)
	x0 := make([]float64, m.n*bw)

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
				Vals: make([]float64, bw),
			})
		}
	}

	var chunk []int
	for start := 0; start < len(idxs); start += bw {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk = chunk[:0]
		for _, pi := range idxs[start:min(start+bw, len(idxs))] {
			if e, ok := m.loadMemo(sc.memoKey(z, true, pts[pi].Omega, pts[pi].Currents)); ok {
				results[pi] = e.res
				continue
			}
			chunk = append(chunk, pi)
		}
		if len(chunk) == 0 {
			continue
		}
		// Pad a partial chunk to the full lockstep width by repeating its
		// last column. A pad runs arithmetic identical to its twin, so it
		// freezes on the same iteration and costs no extra sweeps.
		last := len(chunk) - 1

		// Per-column override values, with the per-point statement shape
		// (base + α·I / base − α·I; I = 0 leaves the canonical value bits).
		nCov := len(covered)
		for ci, cell := range covered {
			alpha := m.tecAlpha[cell]
			cold := &ovs[ci]
			hot := &ovs[nCov+ci]
			cbase := sc.vals[cold.K]
			hbase := sc.vals[hot.K]
			for j := 0; j < bw; j++ {
				iTEC := pts[chunk[min(j, last)]].Currents[z.zoneOf[cell]]
				cv, hv := cbase, hbase
				if iTEC != 0 {
					cv = cbase + alpha*iTEC
					hv = hbase - alpha*iTEC
				}
				cold.Vals[j] = cv
				hot.Vals[j] = hv
			}
		}

		// Interleaved RHS: the canonical slice RHS broadcast per column,
		// plus each point's Joule injection at the gen plane.
		for i := 0; i < m.n; i++ {
			base := sc.rhs[i]
			row := b[i*bw : i*bw+bw]
			for j := range row {
				row[j] = base
			}
		}
		for _, cell := range covered {
			mid := m.node(planeTECMid, cell)
			row := b[mid*bw : mid*bw+bw]
			for j := range row {
				iTEC := pts[chunk[min(j, last)]].Currents[z.zoneOf[cell]]
				if iTEC != 0 {
					row[j] += m.tecR[cell] * iTEC * iTEC
				}
			}
		}

		// Interleaved start: every column from the group seed (ambient
		// when the group has none — the per-point nil-warm fill).
		if seed != nil {
			for i := 0; i < m.n; i++ {
				s := seed[i]
				row := x0[i*bw : i*bw+bw]
				for j := range row {
					row[j] = s
				}
			}
		} else {
			for i := range x0 {
				x0[i] = m.cfg.Ambient
			}
		}

		opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n}
		sols, stats, ok, err := sparse.CGPrecondBatch(sc.mat, ovs, b, x0, ic, opts, ws)
		if err != nil {
			return err
		}
		for j, pi := range chunk {
			// The chunk's canonical assembly is done, so sc.cur is free to
			// carry this column's per-cell current into the result.
			sc.loadCurrents(z, pts[pi].Currents)
			res := m.linearResult(omega, maxCur[pi], sc.cur, sols[j], stats[j], ok[j])
			m.storeResult(sc.memoKey(z, true, pts[pi].Omega, pts[pi].Currents), res)
			results[pi] = res
		}
	}
	return nil
}
