package thermal

import (
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
// symbolic analysis, what a transient step's preconditioner-cache miss
// pays before its solve.
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
// factorization finished from the network's prefix (see
// network.slicePre), what a steady ω-slice's preconditioner-cache miss
// pays before its solve.
func BenchmarkSliceFactor(b *testing.B) {
	m, sc, _ := benchSlice(b)
	defer m.putScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.slicePre.Factor(sc.mat); err != nil {
			b.Fatal(err)
		}
	}
}
