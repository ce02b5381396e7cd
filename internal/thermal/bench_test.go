package thermal

import (
	"testing"

	"oftec/internal/sparse"
	"oftec/internal/workload"
)

func benchmarkModel(b *testing.B) *Model {
	b.Helper()
	cfg := DefaultConfig()
	bench, err := workload.ByName("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	pm, err := bench.PowerMap(cfg.Floorplan)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewModel(cfg, pm)
	if err != nil {
		b.Fatal(err)
	}
	return m
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
		m.assembleInto(sc, 250, sc.cell, true, nil)
		if sc.mat.N() != m.n {
			b.Fatal("bad dimension")
		}
	}
}

// BenchmarkAssembleReference measures the Builder-based reference assembly
// the production path replaced, for before/after comparison in place.
func BenchmarkAssembleReference(b *testing.B) {
	m := benchmarkModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat, _, err := m.assembleReference(250, m.uniformCurrent(1.5), true, nil)
		if err != nil {
			b.Fatal(err)
		}
		if mat.N() != m.n {
			b.Fatal("bad dimension")
		}
	}
}
