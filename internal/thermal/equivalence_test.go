package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"oftec/internal/sparse"
)

// This file is the equivalence suite for the patched assembly path: the
// production assembleInto (O(nnz) copy + O(n) diagonal/RHS patches into a
// frozen symbolic pattern) must agree with the Builder-based
// assembleReference to 1e-12 entrywise, and the end-to-end Evaluate /
// EvaluateExact results must match a reference-assembled solve, including
// the runaway classification at the corners of the operating space.

// equivGrid spans the operating space, including the fanless high-current
// corner where the TEC-only system runs away.
func equivGrid(cfg Config) (omegas, currents []float64) {
	omegas = []float64{0, 80, 250, cfg.Fan.OmegaMax}
	currents = []float64{0, 1.0, cfg.TEC.MaxCurrent}
	return
}

// uniformCells is the per-cell current of the paper's deployment: every
// module in series carries iTEC.
func uniformCells(m *Model, iTEC float64) []float64 {
	cur := make([]float64, m.grids[planeChip].NumCells())
	sparse.Fill(cur, iTEC)
	return cur
}

// maxMatrixDiff returns the largest entrywise difference between two
// matrices, walking both sparsity patterns so an entry present in only one
// (e.g. a structurally forced diagonal) is still compared against zero.
func maxMatrixDiff(a, b *sparse.CSR) float64 {
	var worst float64
	scan := func(p, q *sparse.CSR) {
		for i := 0; i < p.N(); i++ {
			for k := int(p.RowPtr(i)); k < int(p.RowPtr(i+1)); k++ {
				d := math.Abs(p.ValAt(k) - q.At(i, p.ColAt(k)))
				// Scale the 1e-12 bar to the entry magnitude.
				d /= math.Max(1, math.Abs(p.ValAt(k)))
				if d > worst {
					worst = d
				}
			}
		}
	}
	scan(a, b)
	scan(b, a)
	return worst
}

func TestAssembleMatchesReference(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	omegas, currents := equivGrid(m.cfg)
	sc := m.getScratch()
	defer m.putScratch(sc)
	for _, omega := range omegas {
		for _, itec := range currents {
			m.assembleInto(sc, omega, uniformCells(m, itec), true, nil)
			ref, refRHS, err := m.assembleReference(omega, uniformCells(m, itec), true, nil)
			if err != nil {
				t.Fatalf("(ω=%g, I=%g): %v", omega, itec, err)
			}
			if d := maxMatrixDiff(sc.mat, ref); d > 1e-12 {
				t.Errorf("(ω=%g, I=%g): matrix differs from reference by %g", omega, itec, d)
			}
			for i, want := range refRHS {
				d := math.Abs(sc.rhs[i]-want) / math.Max(1, math.Abs(want))
				if d > 1e-12 {
					t.Errorf("(ω=%g, I=%g): rhs[%d] = %g, reference %g", omega, itec, i, sc.rhs[i], want)
					break
				}
			}
		}
	}
}

// TestAssembleMatchesReferenceConstantLeakage covers the linearLeak=false
// branch the exact fixed-point loop uses: a constant per-cell leakage
// injection in the RHS, no leakage term in the matrix.
func TestAssembleMatchesReferenceConstantLeakage(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	nc := m.grids[planeChip].NumCells()
	leak := make([]float64, nc)
	for i := range leak {
		leak[i] = 0.01 * float64(i%7)
	}
	sc := m.getScratch()
	defer m.putScratch(sc)
	m.assembleInto(sc, 200, uniformCells(m, 1.5), false, leak)
	ref, refRHS, err := m.assembleReference(200, uniformCells(m, 1.5), false, leak)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxMatrixDiff(sc.mat, ref); d > 1e-12 {
		t.Errorf("matrix differs from reference by %g", d)
	}
	for i, want := range refRHS {
		if d := math.Abs(sc.rhs[i]-want) / math.Max(1, math.Abs(want)); d > 1e-12 {
			t.Errorf("rhs[%d] = %g, reference %g", i, sc.rhs[i], want)
			break
		}
	}
}

// TestAssembledSystemsSymmetric pins the contract sparse.CGPrecond and
// the adjoint's Aᵀ = A rest on: every system assembled on the shared
// pattern is exactly symmetric, at random operating points for k ∈
// {1, 3, 9} zones, with linearized and exact (constant-injection)
// leakage, for the ω-slice's canonical matrix, and for a backward-Euler
// step.
func TestAssembledSystemsSymmetric(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(17))
	m := benchModel(t, cfg, "Basicmath")
	nc := m.grids[planeChip].NumCells()
	leak := make([]float64, nc)
	for i := range leak {
		leak[i] = 0.01 * float64(i%7)
	}
	sc := m.getScratch()
	defer m.putScratch(sc)
	check := func(what string) {
		t.Helper()
		if !sc.mat.IsSymmetric(0) {
			t.Errorf("%s: assembled matrix is not symmetric", what)
		}
	}
	for _, k := range []int{1, 3, 9} {
		z := testZoning(t, m, k)
		for i, p := range randomPoints(rng, cfg, k, 6) {
			what := fmt.Sprintf("k=%d point %d", k, i)
			sc.loadCurrents(z, p.Currents)
			m.assembleInto(sc, p.Omega, sc.cur, true, nil)
			check(what + " linearized")
			m.assembleInto(sc, p.Omega, sc.cur, false, leak)
			check(what + " exact leakage")
			m.assembleSlice(sc, p.Omega)
			check(what + " ω-slice")
			tr, err := m.NewTransient(p.Omega, p.Currents[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			tr.assemble(sc, 1e-3)
			check(what + " transient")
		}
	}
	m.assembleSlice(sc, 0)
	check("ω-slice at ω = 0")
}

// solve is the reference path's sparse solve: CG under an IC(0)
// factorization of its own Builder-assembled matrix, with a warm start
// when available.
func (m *Model) solve(mat *sparse.CSR, rhs, warm []float64) ([]float64, sparse.Stats, error) {
	ic, err := sparse.NewICPreconditioner(mat)
	if err != nil {
		return nil, sparse.Stats{}, err
	}
	return sparse.CGPrecond(mat, rhs, ic, sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, X0: warm})
}

// referenceEvaluate is the pre-optimization end-to-end path: Builder
// assembly plus a solve under a fresh factorization from a cold ambient start,
// with the same classification rules as Evaluate.
func referenceEvaluate(t *testing.T, m *Model, omega, itec float64) *Result {
	t.Helper()
	mat, rhs, err := m.assembleReference(omega, uniformCells(m, itec), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]float64, m.n)
	sparse.Fill(warm, m.cfg.Ambient)
	temps, stats, err := m.solve(mat, rhs, warm)
	if err != nil || !m.physical(temps) {
		return m.runawayResult(omega, itec, stats)
	}
	res := m.buildResult(omega, itec, uniformCells(m, itec), temps, stats, true)
	if res.MaxChipTemp > m.cfg.runawayTemp() {
		return m.runawayResult(omega, itec, stats)
	}
	return res
}

func TestEvaluateMatchesReferencePath(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	omegas, currents := equivGrid(m.cfg)
	for _, omega := range omegas {
		for _, itec := range currents {
			got, err := m.Evaluate(omega, itec)
			if err != nil {
				t.Fatalf("(ω=%g, I=%g): %v", omega, itec, err)
			}
			want := referenceEvaluate(t, m, omega, itec)
			if got.Runaway != want.Runaway {
				t.Errorf("(ω=%g, I=%g): runaway %v, reference %v", omega, itec, got.Runaway, want.Runaway)
				continue
			}
			if got.Runaway {
				continue
			}
			var worst float64
			for i := range got.T {
				if d := math.Abs(got.T[i] - want.T[i]); d > worst {
					worst = d
				}
			}
			if worst > 1e-4 {
				t.Errorf("(ω=%g, I=%g): temperature fields differ by up to %g K", omega, itec, worst)
			}
			if d := math.Abs(got.MaxChipTemp - want.MaxChipTemp); d > 1e-4 {
				t.Errorf("(ω=%g, I=%g): MaxChipTemp %g vs reference %g", omega, itec, got.MaxChipTemp, want.MaxChipTemp)
			}
		}
	}
}

// TestEvaluateExactIsFixedPoint closes the loop on the exact path without
// duplicating its algorithm: at the converged field, re-assembling the
// system through the reference Builder with the exact exponential leakage
// evaluated at that field and solving once must reproduce the field. A
// drifting fixed point (wrong remainder bookkeeping, stale RHS snapshot)
// would show up here immediately.
func TestEvaluateExactIsFixedPoint(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	res, err := m.EvaluateExact(250, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runaway {
		t.Fatal("exact evaluation ran away at a mild operating point")
	}
	nc := m.grids[planeChip].NumCells()
	leak := make([]float64, nc)
	for i := 0; i < nc; i++ {
		tc := res.T[m.node(planeChip, i)]
		leak[i] = m.leakP0[i] * math.Exp(m.leakBeta*(tc-m.leakT0))
	}
	mat, rhs, err := m.assembleReference(250, uniformCells(m, 1.2), false, leak)
	if err != nil {
		t.Fatal(err)
	}
	temps, _, err := m.solve(mat, rhs, res.T)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < nc; i++ {
		n := m.node(planeChip, i)
		if d := math.Abs(temps[n] - res.T[n]); d > worst {
			worst = d
		}
	}
	// The outer loop stops at a 1e-4 K step with a strongly contracting
	// map, so one more exact sweep moves the chip field by far less.
	if worst > 1e-2 {
		t.Errorf("converged field moves %g K under one exact re-solve; not a fixed point", worst)
	}
}

// TestConcurrentPooledEvaluate hammers one model from many goroutines
// across every entry point that borrows pooled scratch — Evaluate,
// EvaluateWarm (unzoned and under a one-zone zoning), EvaluateExact,
// EvaluateGrad, and a Transient — and then checks the linearized results
// against a fresh serial model. The mix includes warm-start hints, so
// whichever racer solves a point first fixes the memoized bits; the
// comparison is therefore to solver tolerance, not bit-exact (the
// warm-free determinism contract is pinned separately by the core stress
// test). Run under -race this exercises the sync.Pool handoff, the memo
// map with its result and gradient entries, and the shared factorization
// cache.
func TestConcurrentPooledEvaluate(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	assign := map[string]int{}
	for _, u := range cfg.Floorplan.Units() {
		assign[u.Name] = 0
	}
	zoning, err := m.NewZoning(assign, 1)
	if err != nil {
		t.Fatal(err)
	}

	points := make([]struct{ omega, itec float64 }, 12)
	for i := range points {
		points[i].omega = 60 + 30*float64(i%6)
		points[i].itec = 0.4 * float64(i%4)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var warm []float64
			for i := 0; i < 6*len(points); i++ {
				p := points[(w+i)%len(points)]
				switch i % 5 {
				case 0:
					if _, err := m.Evaluate(p.omega, p.itec); err != nil {
						errs <- err
						return
					}
				case 1:
					res, err := m.EvaluateWarm(nil, opPoint(p.omega, p.itec), warm)
					if err != nil {
						errs <- err
						return
					}
					if !res.Runaway {
						warm = res.T
					}
				case 2:
					if _, err := m.EvaluateExact(p.omega, p.itec); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := m.EvaluateWarm(zoning, opPoint(p.omega, p.itec), nil); err != nil {
						errs <- err
						return
					}
				case 4:
					if _, err := m.EvaluateGrad(nil, opPoint(p.omega, p.itec)); err != nil {
						// Only a runaway point has no gradient.
						if res, rerr := m.Evaluate(p.omega, p.itec); rerr != nil || !res.Runaway {
							errs <- err
							return
						}
					}
				}
			}
			tr, err := m.NewTransient(200, 1, nil)
			if err != nil {
				errs <- err
				return
			}
			for s := 0; s < 4; s++ {
				if _, err := tr.Step(0.05); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ref := benchModel(t, cfg, "Basicmath")
	for _, p := range points {
		want, err := ref.Evaluate(p.omega, p.itec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Evaluate(p.omega, p.itec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Runaway != want.Runaway || math.Abs(got.MaxChipTemp-want.MaxChipTemp) > 1e-6 {
			t.Errorf("(ω=%g, I=%g): concurrent model diverged from serial reference (%g vs %g)",
				p.omega, p.itec, got.MaxChipTemp, want.MaxChipTemp)
		}
	}
}
