package sparse

import (
	"fmt"
	"math"
	"sync"
)

// This file is the blocked multi-RHS solve engine. The bulk workloads in
// this repository — surface sweeps, Pareto probes, ROM snapshot
// collection — evaluate many operating points against one ω-slice of the
// conductance matrix: the systems differ only in a handful of diagonal
// entries (the per-point Peltier terms) and in the RHS. CGPrecondBatch
// solves BatchWidth such systems in lockstep, sharing one IC(0)
// factorization and walking the matrix pattern once per iteration for
// all columns, with the column values interleaved (node i, column j at
// i*BatchWidth+j) so each inner loop streams one eight-wide contiguous
// block — a float64 cache line — held in registers. A caller with fewer
// points pads the block by repeating its last column: a pad runs its
// twin's arithmetic, freezes on the same iteration, and is dropped.
//
// The lockstep iteration replicates CGPrecond's arithmetic per column
// bit-for-bit: every dot product accumulates in the same i-order, every
// matrix row in the same k-order, and each column carries its own
// alpha/beta/rz scalars. A column that converges is frozen (its x is
// never touched again); a column that breaks down or exhausts the budget
// is frozen too and reported not-ok with the Stats CGPrecond fails with.
// Batched results are therefore DeepEqual to per-point results,
// including SolveStats, and a failed column is as final as a failed
// CGPrecond.

// BatchWidth is the lockstep column count: one float64 cache line under
// every matrix-entry load, where the pattern-walk amortization saturates,
// while the interleaved working set (six n×8 vectors) stays in cache. The
// kernels below are written out for exactly eight columns, so this names
// the width; it is not a tuning knob.
const BatchWidth = 8

// DiagOverride replaces one value-array slot of the shared matrix with a
// per-column coefficient: row Row's entry at value index K reads
// Vals[j] (the full coefficient, not a delta) for column j. The batched
// thermal assembly uses these for the TEC cold/hot diagonal terms, the
// only matrix entries that vary within an ω-slice. Vals holds BatchWidth
// coefficients.
type DiagOverride struct {
	Row  int32
	K    int32
	Vals []float64
}

// BatchWorkspace holds the interleaved scratch of one lockstep solve so
// chunked batch loops (or a sync.Pool) avoid per-call allocation. The
// zero value is ready; vectors grow on demand and are retained.
type BatchWorkspace struct {
	x, r, z, p, ap, pre []float64 // n×BatchWidth interleaved

	bnorm, rz, rzNew, pap        [BatchWidth]float64 // per-column scalars
	alpha, nalpha, beta, resnorm [BatchWidth]float64
	inactive                     [BatchWidth]bool
}

// grow sizes the workspace for an n-node solve and clears the column
// state.
func (ws *BatchWorkspace) grow(n int) {
	growF := func(v []float64, size int) []float64 {
		if cap(v) < size {
			return make([]float64, size)
		}
		return v[:size]
	}
	nw := n * BatchWidth
	ws.x = growF(ws.x, nw)
	ws.r = growF(ws.r, nw)
	ws.z = growF(ws.z, nw)
	ws.p = growF(ws.p, nw)
	ws.ap = growF(ws.ap, nw)
	ws.pre = growF(ws.pre, nw)
	ws.inactive = [BatchWidth]bool{}
}

// batchPool recycles BatchWorkspaces across chunked solves.
var batchPool = sync.Pool{New: func() any { return &BatchWorkspace{} }}

// GetBatchWorkspace takes a pooled workspace.
func GetBatchWorkspace() *BatchWorkspace { return batchPool.Get().(*BatchWorkspace) }

// PutBatchWorkspace returns a workspace to the pool.
func PutBatchWorkspace(ws *BatchWorkspace) { batchPool.Put(ws) }

// mulVecBatch computes dst = A_j·x per column j, where A_j is the shared
// matrix with the per-column DiagOverride values applied. Overrides must
// be sorted by ascending Row (validated by CGPrecondBatch); each row has
// at most one. The eight column accumulators live in registers and each
// inner-loop slice has compile-time length 8, so the bounds checks vanish
// and each loaded matrix entry feeds eight multiply-adds off one cache
// line. Per column the accumulation runs in the same k-order as
// CSR.MulVec, so the result bits match a per-point MulVec against the
// patched matrix.
//
//oftec:hotpath
func mulVecBatch(m *CSR, ovs []DiagOverride, dst, x []float64) {
	oi := 0
	for i := 0; i < m.n; i++ {
		lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		if oi < len(ovs) && int(ovs[oi].Row) == i {
			ovK := int(ovs[oi].K)
			ovVals := ovs[oi].Vals[:8]
			for k := lo; k < hi; k++ {
				c := int(m.colIdx[k]) * 8
				xs := x[c : c+8 : c+8]
				v := m.values[k]
				if k == ovK {
					a0 += ovVals[0] * xs[0]
					a1 += ovVals[1] * xs[1]
					a2 += ovVals[2] * xs[2]
					a3 += ovVals[3] * xs[3]
					a4 += ovVals[4] * xs[4]
					a5 += ovVals[5] * xs[5]
					a6 += ovVals[6] * xs[6]
					a7 += ovVals[7] * xs[7]
					continue
				}
				a0 += v * xs[0]
				a1 += v * xs[1]
				a2 += v * xs[2]
				a3 += v * xs[3]
				a4 += v * xs[4]
				a5 += v * xs[5]
				a6 += v * xs[6]
				a7 += v * xs[7]
			}
			oi++
		} else {
			for k := lo; k < hi; k++ {
				v := m.values[k]
				c := int(m.colIdx[k]) * 8
				xs := x[c : c+8 : c+8]
				a0 += v * xs[0]
				a1 += v * xs[1]
				a2 += v * xs[2]
				a3 += v * xs[3]
				a4 += v * xs[4]
				a5 += v * xs[5]
				a6 += v * xs[6]
				a7 += v * xs[7]
			}
		}
		ds := dst[i*8 : i*8+8 : i*8+8]
		ds[0], ds[1], ds[2], ds[3], ds[4], ds[5], ds[6], ds[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// applyBlock runs the factor's forward/backward triangular sweeps over
// the eight interleaved columns at once: dst = (L̃·D·L̃ᵀ)⁻¹·r per column,
// touching the factor pattern once for all columns, with each row's
// eight values held in registers through its update loop. Per column
// the operations and their order match ApplyScratch exactly: forward,
// acc −= v·y in k-order into y, then w = acc·(1/d) into dst; backward,
// x = dst (final), then dst −= v·x in k-order.
//
//oftec:hotpath
func (p *ICPreconditioner) applyBlock(dst, r, y []float64) {
	// Forward solve L̃·y = r (rows of L̃ are sorted with the diagonal slot
	// last), and w = D⁻¹·y into dst.
	for i := 0; i < p.n; i++ {
		base := i * 8
		rs := r[base : base+8 : base+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := rs[0], rs[1], rs[2], rs[3], rs[4], rs[5], rs[6], rs[7]
		lo, hi := int(p.lRowPtr[i]), int(p.lRowPtr[i+1])
		for k := lo; k < hi-1; k++ {
			v := p.lValues[k]
			c := int(p.lColIdx[k]) * 8
			ys := y[c : c+8 : c+8]
			a0 -= v * ys[0]
			a1 -= v * ys[1]
			a2 -= v * ys[2]
			a3 -= v * ys[3]
			a4 -= v * ys[4]
			a5 -= v * ys[5]
			a6 -= v * ys[6]
			a7 -= v * ys[7]
		}
		ys := y[base : base+8 : base+8]
		ys[0], ys[1], ys[2], ys[3] = a0, a1, a2, a3
		ys[4], ys[5], ys[6], ys[7] = a4, a5, a6, a7
		dinv := p.lValues[hi-1]
		ds := dst[base : base+8 : base+8]
		ds[0], ds[1], ds[2], ds[3] = a0*dinv, a1*dinv, a2*dinv, a3*dinv
		ds[4], ds[5], ds[6], ds[7] = a4*dinv, a5*dinv, a6*dinv, a7*dinv
	}
	// Backward solve L̃ᵀ·dst = w in place, by columns of L̃ᵀ (the rows of
	// L̃).
	for i := p.n - 1; i >= 0; i-- {
		base := i * 8
		lo, hi := int(p.lRowPtr[i]), int(p.lRowPtr[i+1])
		ds := dst[base : base+8 : base+8]
		x0, x1, x2, x3 := ds[0], ds[1], ds[2], ds[3]
		x4, x5, x6, x7 := ds[4], ds[5], ds[6], ds[7]
		for k := lo; k < hi-1; k++ {
			v := p.lValues[k]
			c := int(p.lColIdx[k]) * 8
			dc := dst[c : c+8 : c+8]
			dc[0] -= v * x0
			dc[1] -= v * x1
			dc[2] -= v * x2
			dc[3] -= v * x3
			dc[4] -= v * x4
			dc[5] -= v * x5
			dc[6] -= v * x6
			dc[7] -= v * x7
		}
	}
}

// dotColsInto computes out[j] = Σ_i a[i*8+j]·b[i*8+j], keeping the eight
// column accumulators in registers across the whole sweep; each column
// sums in ascending i-order — the same order Dot uses.
//
//oftec:hotpath
func dotColsInto(out *[BatchWidth]float64, a, b []float64) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for base := 0; base+8 <= len(a); base += 8 {
		as, bs := a[base:base+8:base+8], b[base:base+8:base+8]
		a0 += as[0] * bs[0]
		a1 += as[1] * bs[1]
		a2 += as[2] * bs[2]
		a3 += as[3] * bs[3]
		a4 += as[4] * bs[4]
		a5 += as[5] * bs[5]
		a6 += as[6] * bs[6]
		a7 += as[7] * bs[7]
	}
	*out = [BatchWidth]float64{a0, a1, a2, a3, a4, a5, a6, a7}
}

// axpyCols computes y[i*8+j] += alpha[j]·x[i*8+j]. When anyInactive is
// set, inactive columns are skipped entirely so a frozen column's vector
// is never touched again — exactly as if its per-point solve had already
// returned.
//
//oftec:hotpath
func axpyCols(alpha *[BatchWidth]float64, x, y []float64, inactive *[BatchWidth]bool, anyInactive bool) {
	l0, l1, l2, l3, l4, l5, l6, l7 := alpha[0], alpha[1], alpha[2], alpha[3], alpha[4], alpha[5], alpha[6], alpha[7]
	if !anyInactive {
		for base := 0; base+8 <= len(y); base += 8 {
			xs, ys := x[base:base+8:base+8], y[base:base+8:base+8]
			ys[0] += l0 * xs[0]
			ys[1] += l1 * xs[1]
			ys[2] += l2 * xs[2]
			ys[3] += l3 * xs[3]
			ys[4] += l4 * xs[4]
			ys[5] += l5 * xs[5]
			ys[6] += l6 * xs[6]
			ys[7] += l7 * xs[7]
		}
		return
	}
	// Frozen columns must not be written at all (a breakdown column may
	// hold non-finite values that a masked multiply would smear), so the
	// skip stays a branch — but hoisted into eight registers whose pattern
	// is fixed for the whole sweep, which the branch predictor eats for
	// free.
	i0, i1, i2, i3, i4, i5, i6, i7 := inactive[0], inactive[1], inactive[2], inactive[3], inactive[4], inactive[5], inactive[6], inactive[7]
	for base := 0; base+8 <= len(y); base += 8 {
		xs, ys := x[base:base+8:base+8], y[base:base+8:base+8]
		if !i0 {
			ys[0] += l0 * xs[0]
		}
		if !i1 {
			ys[1] += l1 * xs[1]
		}
		if !i2 {
			ys[2] += l2 * xs[2]
		}
		if !i3 {
			ys[3] += l3 * xs[3]
		}
		if !i4 {
			ys[4] += l4 * xs[4]
		}
		if !i5 {
			ys[5] += l5 * xs[5]
		}
		if !i6 {
			ys[6] += l6 * xs[6]
		}
		if !i7 {
			ys[7] += l7 * xs[7]
		}
	}
}

// updateDirCols computes p[i*8+j] = z[i*8+j] + beta[j]·p[i*8+j], the CG
// search-direction update, per column in i-order, skipping inactive
// columns like axpyCols.
//
//oftec:hotpath
func updateDirCols(p, z []float64, beta *[BatchWidth]float64, inactive *[BatchWidth]bool, anyInactive bool) {
	b0, b1, b2, b3, b4, b5, b6, b7 := beta[0], beta[1], beta[2], beta[3], beta[4], beta[5], beta[6], beta[7]
	if !anyInactive {
		for base := 0; base+8 <= len(p); base += 8 {
			ps, zs := p[base:base+8:base+8], z[base:base+8:base+8]
			ps[0] = zs[0] + b0*ps[0]
			ps[1] = zs[1] + b1*ps[1]
			ps[2] = zs[2] + b2*ps[2]
			ps[3] = zs[3] + b3*ps[3]
			ps[4] = zs[4] + b4*ps[4]
			ps[5] = zs[5] + b5*ps[5]
			ps[6] = zs[6] + b6*ps[6]
			ps[7] = zs[7] + b7*ps[7]
		}
		return
	}
	i0, i1, i2, i3, i4, i5, i6, i7 := inactive[0], inactive[1], inactive[2], inactive[3], inactive[4], inactive[5], inactive[6], inactive[7]
	for base := 0; base+8 <= len(p); base += 8 {
		ps, zs := p[base:base+8:base+8], z[base:base+8:base+8]
		if !i0 {
			ps[0] = zs[0] + b0*ps[0]
		}
		if !i1 {
			ps[1] = zs[1] + b1*ps[1]
		}
		if !i2 {
			ps[2] = zs[2] + b2*ps[2]
		}
		if !i3 {
			ps[3] = zs[3] + b3*ps[3]
		}
		if !i4 {
			ps[4] = zs[4] + b4*ps[4]
		}
		if !i5 {
			ps[5] = zs[5] + b5*ps[5]
		}
		if !i6 {
			ps[6] = zs[6] + b6*ps[6]
		}
		if !i7 {
			ps[7] = zs[7] + b7*ps[7]
		}
	}
}

// CGPrecondBatch solves the BatchWidth systems A_j·x_j = b_j in lockstep
// under a shared IC(0) preconditioner, where A_j is the base matrix a
// with the per-column DiagOverride coefficients applied. b and x0 are
// interleaved (node i, column j at i*BatchWidth+j); x0 may be nil for a
// zero start. ok[j] reports whether column j converged; its solution is
// then freshly allocated (it outlives the workspace), and nil otherwise.
// stats[j] is the column's Stats either way. A column fails exactly when
// CGPrecond would — breakdown, exhausted budget, or a nil m, which fails
// every column with zero Stats — and with CGPrecond's Stats, so a failed
// column is final: re-solving it per point reproduces the same failure.
// The error reports malformed arguments only.
//
// Per column the arithmetic is bit-identical to CGPrecond against the
// patched matrix with the same preconditioner, start, and options:
// batched and per-point solves return DeepEqual solutions and Stats.
//
//oftec:allocok one output slice per converged column plus pooled-workspace growth; the per-iteration kernels are the annotated hot paths
func CGPrecondBatch(a *CSR, ovs []DiagOverride, b, x0 []float64, m *ICPreconditioner, opts SolveOptions, ws *BatchWorkspace) ([][]float64, []Stats, []bool, error) {
	const w = BatchWidth
	n := a.N()
	if len(b) != n*w {
		return nil, nil, nil, fmt.Errorf("sparse: batch rhs length %d does not match n·%d = %d", len(b), w, n*w)
	}
	if x0 != nil && len(x0) != n*w {
		return nil, nil, nil, fmt.Errorf("sparse: batch start length %d does not match n·%d = %d", len(x0), w, n*w)
	}
	for oi, ov := range ovs {
		if len(ov.Vals) != w {
			return nil, nil, nil, fmt.Errorf("sparse: override %d has %d values for width %d", oi, len(ov.Vals), w)
		}
		if oi > 0 && ov.Row <= ovs[oi-1].Row {
			return nil, nil, nil, fmt.Errorf("sparse: overrides must be sorted by strictly ascending row (override %d row %d after %d)", oi, ov.Row, ovs[oi-1].Row)
		}
		if ov.Row < 0 || int(ov.Row) >= n || ov.K < int32(a.rowPtr[ov.Row]) || ov.K >= int32(a.rowPtr[ov.Row+1]) {
			return nil, nil, nil, fmt.Errorf("sparse: override %d (row %d, k %d) outside the matrix pattern", oi, ov.Row, ov.K)
		}
	}
	out := make([][]float64, w)
	stats := make([]Stats, w)
	ok := make([]bool, w)
	if m == nil {
		return out, stats, ok, nil
	}
	if ws == nil {
		ws = &BatchWorkspace{}
	}
	ws.grow(n)

	x, r, z, p, ap := ws.x, ws.r, ws.z, ws.p, ws.ap
	if x0 != nil {
		copy(x, x0)
	} else {
		for i := range x {
			x[i] = 0
		}
	}

	inactive := &ws.inactive
	active := w

	// r = b − A_j·x per column, matching CSR.Residual's op order.
	mulVecBatch(a, ovs, r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	dotColsInto(&ws.bnorm, b, b)
	for j := 0; j < w; j++ {
		ws.bnorm[j] = math.Sqrt(ws.bnorm[j])
		if ws.bnorm[j] == 0 {
			// CGPrecond returns the start unchanged for a zero RHS.
			inactive[j] = true
			ok[j] = true
			active--
		}
	}
	anyInactive := active < w
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	if active > 0 {
		m.applyBlock(z, r, ws.pre)
		copy(p, z)
		dotColsInto(&ws.rz, r, z)
	}

	for it := 1; it <= maxIter && active > 0; it++ {
		mulVecBatch(a, ovs, ap, p)
		dotColsInto(&ws.pap, p, ap)
		for j := 0; j < w; j++ {
			ws.alpha[j] = 0
			if inactive[j] {
				continue
			}
			pap := ws.pap[j]
			if pap <= 0 || math.IsNaN(pap) {
				// CGPrecond's breakdown, at the same iteration.
				stats[j] = Stats{Iterations: it}
				inactive[j] = true
				anyInactive = true
				active--
				continue
			}
			ws.alpha[j] = ws.rz[j] / pap
		}
		if active == 0 {
			break
		}
		axpyCols(&ws.alpha, p, x, inactive, anyInactive)
		for j := 0; j < w; j++ {
			ws.nalpha[j] = -ws.alpha[j]
		}
		axpyCols(&ws.nalpha, ap, r, inactive, anyInactive)
		dotColsInto(&ws.resnorm, r, r)
		for j := 0; j < w; j++ {
			if inactive[j] {
				continue
			}
			res := math.Sqrt(ws.resnorm[j]) / ws.bnorm[j]
			ws.resnorm[j] = res
			if res <= tol {
				stats[j] = Stats{Iterations: it, Residual: res}
				ok[j] = true
				inactive[j] = true
				anyInactive = true
				active--
			}
		}
		if active == 0 {
			break
		}
		m.applyBlock(z, r, ws.pre)
		dotColsInto(&ws.rzNew, r, z)
		for j := 0; j < w; j++ {
			ws.beta[j] = 0
			if inactive[j] {
				continue
			}
			ws.beta[j] = ws.rzNew[j] / ws.rz[j]
			ws.rz[j] = ws.rzNew[j]
		}
		updateDirCols(p, z, &ws.beta, inactive, anyInactive)
	}

	// Columns that exhausted the budget report the per-point
	// no-convergence stats; ok stays false.
	for j := 0; j < w; j++ {
		if !inactive[j] {
			stats[j] = Stats{Iterations: maxIter, Residual: ws.resnorm[j]}
		}
	}

	for j := 0; j < w; j++ {
		if !ok[j] {
			continue
		}
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = x[i*w+j]
		}
		out[j] = col
	}
	return out, stats, ok, nil
}
