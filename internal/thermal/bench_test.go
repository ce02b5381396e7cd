package thermal

import (
	"fmt"
	"math"
	"testing"

	"oftec/internal/sparse"
)

func benchmarkModel(b *testing.B) *Model {
	b.Helper()
	cfg := DefaultConfig()
	m, err := NewModel(cfg, benchMap(b, cfg, "Basicmath"))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkNewModel is a build microbenchmark: NewModel at paper
// resolution on a configuration whose network is already cached, i.e.
// validation, keying, and the per-model state over a shared network.
func BenchmarkNewModel(b *testing.B) {
	cfg := DefaultConfig()
	pm := benchMap(b, cfg, "Basicmath")
	if _, err := NewModel(cfg, pm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewModel(cfg, pm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewModelCold is a build microbenchmark: NewModel at paper
// resolution on a configuration never seen before (each iteration nudges
// the ambient temperature), so every iteration assembles a network.
func BenchmarkNewModelCold(b *testing.B) {
	base := DefaultConfig()
	pm := benchMap(b, base, "Basicmath")
	resetNetworks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.Ambient += 1e-9 * float64(i)
		if _, err := NewModel(cfg, pm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble measures the production assembly path of one
// linearized system (matrix + RHS) at the full resolution, without the
// solve: the O(nnz) value copy plus O(n) diagonal/RHS patches into pooled
// scratch. scripts/bench.sh records it in BENCH_evaluate.json.
func BenchmarkAssemble(b *testing.B) {
	m := benchmarkModel(b)
	sc := m.getScratch()
	defer m.putScratch(sc)
	sparse.Fill(sc.cur, 1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.assembleInto(sc, 250, sc.cur, true, nil)
		if sc.mat.N() != m.n {
			b.Fatal("bad dimension")
		}
	}
}

// BenchmarkAssembleReference measures the Builder-based reference assembly
// the production path replaced, for before/after comparison in place.
func BenchmarkAssembleReference(b *testing.B) {
	m := benchmarkModel(b)
	cur := uniformCells(m, 1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat, _, err := m.assembleReference(250, cur, true, nil)
		if err != nil {
			b.Fatal(err)
		}
		if mat.N() != m.n {
			b.Fatal("bad dimension")
		}
	}
}

// benchSlice assembles the canonical matrix of the ω-slice at 220 rad/s,
// the slice BenchmarkEvaluateCold solves on, at paper resolution, and
// returns it with a smooth vector to multiply.
func benchSlice(b *testing.B) (*Model, *evalScratch, []float64) {
	m := benchmarkModel(b)
	sc := m.getScratch()
	m.assembleSlice(sc, 220)
	x := make([]float64, m.n)
	for i := range x {
		x[i] = math.Sin(0.01 * float64(i))
	}
	return m, sc, x
}

// BenchmarkMulVec is a kernel microbenchmark: one sparse matrix-vector
// product along the row plan, the SpMV of every CG iteration, on the
// paper-resolution Basicmath ω-slice (1,938 rows, 12,472 entries).
func BenchmarkMulVec(b *testing.B) {
	m, sc, x := benchSlice(b)
	defer m.putScratch(sc)
	dst := make([]float64, m.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.mat.MulVec(dst, x)
	}
}

// BenchmarkICApply is a kernel microbenchmark: one application of the
// modified IC(0) preconditioner (a forward and a backward triangular
// sweep), the other half of every CG iteration, on the same slice.
func BenchmarkICApply(b *testing.B) {
	m, sc, x := benchSlice(b)
	defer m.putScratch(sc)
	ic, err := m.icSym.Factor(sc.mat)
	if err != nil {
		b.Fatal(err)
	}
	dst, scratch := make([]float64, m.n), make([]float64, m.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.ApplyScratch(dst, x, scratch)
	}
}

// BenchmarkICFactor is a kernel microbenchmark: one numeric modified
// IC(0) factorization of the whole slice through the network's shared
// symbolic analysis into a fresh value array, what a transient step pays
// before its solve when its (ω, I, Δt) changes.
func BenchmarkICFactor(b *testing.B) {
	m, sc, _ := benchSlice(b)
	defer m.putScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.icSym.Factor(sc.mat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSliceFactor is a kernel microbenchmark: the same slice's
// factorization finished from the network's prefix into the scratch's
// own factor (factorSlice), what every steady solve pays before its CG.
// It allocates nothing.
func BenchmarkSliceFactor(b *testing.B) {
	m, sc, _ := benchSlice(b)
	defer m.putScratch(sc)
	if m.factorSlice(sc) == nil {
		b.Fatal("the slice does not factor")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.factorSlice(sc) == nil {
			b.Fatal("the slice does not factor")
		}
	}
}

// BenchmarkEvaluateBatchChunk times the two routes evaluateGroup can give
// a chunk of k memo misses in one ω-group, for k = 1…sparse.BatchWidth,
// from a fixed seed (the group's I_TEC = 0 solution at half the fan
// range), on Basicmath at oftecd's resolution and at paper resolution:
// per point (k evaluateIn solves, each assembling and factoring its own
// point) and in lockstep (the group's canonical assembly, factorization
// and buffers, and one CGPrecondBatch over the chunk padded to
// sparse.BatchWidth columns). The k currents are spread evenly over
// (0, MaxCurrent). The memo is emptied before every iteration, outside
// the timer, so both routes solve every point. perPointChunk's doc
// comment cites the ratio of the two routes' medians.
func BenchmarkEvaluateBatchChunk(b *testing.B) {
	for _, r := range []struct {
		name string
		cfg  Config
	}{{"oftecd", testConfig()}, {"paper", DefaultConfig()}} {
		m, err := NewModel(r.cfg, benchMap(b, r.cfg, "Basicmath"))
		if err != nil {
			b.Fatal(err)
		}
		omega := m.UMax() / 2
		seedRes, err := m.Evaluate(omega, 0)
		if err != nil || seedRes.Runaway {
			b.Fatalf("seed at ω=%g: err %v", omega, err)
		}
		seed := seedRes.T
		for k := 1; k <= sparse.BatchWidth; k++ {
			pts := make([]Point, k)
			maxCur := make([]float64, k)
			chunk := make([]int, k)
			for j := range pts {
				maxCur[j] = r.cfg.TEC.MaxCurrent * float64(j+1) / float64(k+1)
				pts[j] = Point{Omega: omega, Currents: []float64{maxCur[j]}}
				chunk[j] = j
			}
			results := make([]*Result, k)
			flush := func(b *testing.B) {
				b.StopTimer()
				m.resMu.Lock()
				clear(m.resMem)
				m.resMu.Unlock()
				b.StartTimer()
			}
			b.Run(fmt.Sprintf("%s/k=%d/perpoint", r.name, k), func(b *testing.B) {
				sc := m.getScratch()
				defer m.putScratch(sc)
				for i := 0; i < b.N; i++ {
					flush(b)
					for _, j := range chunk {
						results[j] = m.evaluateIn(sc, m.one, pts[j], maxCur[j], seed)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/k=%d/lockstep", r.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					flush(b)
					lk := m.newLockstep(omega)
					err := m.solveLockstep(lk, m.one, omega, pts, maxCur, chunk, seed, results)
					m.releaseLockstep(lk)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
