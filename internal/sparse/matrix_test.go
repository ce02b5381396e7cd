package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildFromDense(t *testing.T, d [][]float64) *CSR {
	t.Helper()
	b := NewBuilder(len(d))
	for i, row := range d {
		for j, v := range row {
			b.Add(i, j, v)
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 2.0)
	b.Add(0, 1, 3.0)
	b.Add(2, 2, -1.0)
	b.AddDiag(2, 4.0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := m.At(0, 1); got != 5.0 {
		t.Errorf("At(0,1) = %g, want 5", got)
	}
	if got := m.At(2, 2); got != 3.0 {
		t.Errorf("At(2,2) = %g, want 3", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %g, want 0", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 5, 1.0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range entry")
	}
	b2 := NewBuilder(2)
	b2.Add(-1, 0, 1.0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build accepted negative row index")
	}
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Fatal("Build accepted zero dimension")
	}
}

func TestBuilderDropsExplicitZeros(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 0)
	b.Add(1, 1, 1)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (explicit zero should be dropped)", m.NNZ())
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if rng.Float64() < 0.4 {
					d[i][j] = rng.NormFloat64()
				}
			}
		}
		m := buildFromDense(t, d)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		m.MulVec(got, x)
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d: MulVec[%d] = %g, want %g", trial, i, got[i], want)
			}
		}
	}
}

// rowLoop is the plain row loop the row plan replaces: dst = m·x, every
// row summed in stored order from zero.
func rowLoop(m *CSR, dst, x []float64) {
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.values[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
}

// TestMulVecPlanMatchesRowLoopBitwise: on random patterns whose rows store
// 0 to 12 entries (empty rows, every unrolled length, and rows longer than
// any), MulVec and Residual along the row plan match the plain row loop
// bit for bit, and the fused pᵀAp of mulVecDot matches Dot bit for bit;
// so does a WithValues matrix sharing the plan, and a 1×1 matrix.
func TestMulVecPlanMatchesRowLoopBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := map[int32]bool{} // run lengths walked (0: the plain loop)
	rowLens := map[int32]bool{} // stored-entry counts of the rows checked
	check := func(name string, m *CSR) {
		t.Helper()
		n := m.N()
		x, b := make([]float64, n), make([]float64, n)
		for i := range x {
			switch rng.Intn(5) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			default:
				x[i] = rng.NormFloat64()
			}
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		rowLoop(m, want, x)
		got := make([]float64, n)
		m.MulVec(got, x)
		gotDot := m.mulVecDot(got, x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: row %d (%d entries): planned %v, row loop %v", name, i, m.rowPtr[i+1]-m.rowPtr[i], got[i], want[i])
			}
		}
		if wantDot := Dot(x, want); math.Float64bits(gotDot) != math.Float64bits(wantDot) {
			t.Fatalf("%s: fused xᵀ·Ax = %v, Dot = %v", name, gotDot, wantDot)
		}
		res := make([]float64, n)
		m.Residual(res, x, b)
		for i := range res {
			if w := b[i] - want[i]; math.Float64bits(res[i]) != math.Float64bits(w) {
				t.Fatalf("%s: residual row %d = %v, want %v", name, i, res[i], w)
			}
		}
		for _, run := range m.runs {
			lengths[run.length] = true
		}
		for i := 0; i < n; i++ {
			rowLens[m.rowPtr[i+1]-m.rowPtr[i]] = true
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			for _, j := range rng.Perm(n)[:rng.Intn(min(n, 12)+1)] {
				b.Add(i, j, rng.NormFloat64())
			}
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		check("random", m)
		vals := make([]float64, m.NNZ())
		for k := range vals {
			vals[k] = rng.NormFloat64()
		}
		w, err := m.WithValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		check("WithValues", w)
	}
	one := NewBuilder(1)
	one.AddDiag(0, 2.5)
	m1, err := one.Build()
	if err != nil {
		t.Fatal(err)
	}
	check("1×1", m1)
	for l := int32(0); l <= spmvMaxLen; l++ {
		if (l == 0 || l >= spmvMinLen) && !lengths[l] {
			t.Errorf("no run of length %d: the patterns miss a loop body", l)
		}
	}
	if !rowLens[0] || !rowLens[spmvMaxLen+1] {
		t.Errorf("row lengths %v: want an empty row and one longer than %d", rowLens, spmvMaxLen)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := buildFromDense(t, [][]float64{{2, -1, 0}, {-1, 2, -1}, {0, -1, 2}})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := buildFromDense(t, [][]float64{{2, -1}, {1, 2}})
	if asym.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	d := [][]float64{{1, 0, 2}, {0, 3, 0}, {4, 0, 5}}
	m := buildFromDense(t, d)
	got := m.Dense()
	for i := range d {
		for j := range d[i] {
			if got[i][j] != d[i][j] {
				t.Errorf("Dense[%d][%d] = %g, want %g", i, j, got[i][j], d[i][j])
			}
		}
	}
}

// Property: for any assembled matrix, (A·x)ᵀy == xᵀ(Aᵀ·y) when A is
// symmetric, i.e. Dot(Ax, y) == Dot(x, Ay).
func TestSymmetricBilinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddDiag(i, 4+rng.Float64())
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					v := rng.NormFloat64()
					b.Add(i, j, v)
					b.Add(j, i, v)
				}
			}
		}
		m, err := b.Build()
		if err != nil {
			return false
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		ax := make([]float64, n)
		ay := make([]float64, n)
		m.MulVec(ax, x)
		m.MulVec(ay, y)
		return math.Abs(Dot(ax, y)-Dot(x, ay)) < 1e-9*(1+math.Abs(Dot(ax, y)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	bv := []float64{4, -5, 6}
	if got := Dot(a, bv); got != 4-10+18 {
		t.Errorf("Dot = %g, want 12", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := NormInf(bv); got != 6 {
		t.Errorf("NormInf = %g, want 6", got)
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[2] != 7 {
		t.Errorf("AXPY: y[2] = %g, want 7", y[2])
	}
	Fill(y, 9)
	if y[0] != 9 || y[2] != 9 {
		t.Errorf("Fill: y = %v, want all 9", y)
	}
}
