package sparse

import (
	"math"
	"reflect"
	"testing"
)

// patchedMatrix returns a copy of base with the override values for
// column j applied — the per-point view of one batched column's system.
func patchedMatrix(t *testing.T, base *CSR, ovs []DiagOverride, j int) *CSR {
	t.Helper()
	vals := make([]float64, base.NNZ())
	if err := base.CopyValues(vals); err != nil {
		t.Fatal(err)
	}
	for _, ov := range ovs {
		vals[ov.K] = ov.Vals[j]
	}
	m, err := base.WithValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// padded extends per-column values to BatchWidth by repeating the last
// one — how a caller with fewer points fills the lockstep block.
func padded(vals []float64) []float64 {
	out := make([]float64, BatchWidth)
	for j := range out {
		out[j] = vals[min(j, len(vals)-1)]
	}
	return out
}

// interleave packs per-column vectors into the lockstep layout (node i,
// column j at i*BatchWidth+j), padding past the last given column by
// repeating it.
func interleave(cols [][]float64) []float64 {
	n := len(cols[0])
	out := make([]float64, n*BatchWidth)
	for i := 0; i < n; i++ {
		for j := 0; j < BatchWidth; j++ {
			out[i*BatchWidth+j] = cols[min(j, len(cols)-1)][i]
		}
	}
	return out
}

// column extracts column j of an interleaved block.
func column(v []float64, j int) []float64 {
	out := make([]float64, len(v)/BatchWidth)
	for i := range out {
		out[i] = v[i*BatchWidth+j]
	}
	return out
}

// TestCGPrecondBatchMatchesScalarBitwise is the core lockstep contract:
// every batched column — the real ones and the pads repeating the last —
// must be bit-identical (reflect.DeepEqual, not tolerance) to a solo
// CGPrecond run against the patched matrix with the same shared
// preconditioner, start, and options — solutions and Stats.
func TestCGPrecondBatchMatchesScalarBitwise(t *testing.T) {
	base := laplacian2D(12, 1.9)
	n := base.N()
	ic, err := NewICPreconditioner(base)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := base.DiagIndices()
	if err != nil {
		t.Fatal(err)
	}

	const nCols = 5
	// Override two diagonal rows with per-column values ≥ the base value
	// (keeps every column SPD), mirroring the thermal TEC diagonal patch.
	rows := []int{7, 40}
	ovs := make([]DiagOverride, 0, len(rows))
	for _, row := range rows {
		vals := make([]float64, nCols)
		for j := range vals {
			vals[j] = base.ValAt(int(diag[row])) + 0.3*float64(j)
		}
		ovs = append(ovs, DiagOverride{Row: int32(row), K: diag[row], Vals: padded(vals)})
	}

	bcols := make([][]float64, nCols)
	x0cols := make([][]float64, nCols)
	for j := range bcols {
		bcols[j] = make([]float64, n)
		x0cols[j] = make([]float64, n)
		for i := 0; i < n; i++ {
			bcols[j][i] = math.Sin(float64(i)*0.31+float64(j)) + 0.1*float64(j)
			x0cols[j][i] = 0.01 * float64((i*nCols+j)%17)
		}
	}
	b := interleave(bcols)

	for _, warm := range []bool{false, true} {
		var x0 []float64
		if warm {
			x0 = interleave(x0cols)
		}
		opts := SolveOptions{Tol: 1e-10}
		got, stats, ok, err := CGPrecondBatch(base, ovs, b, x0, ic, opts, nil)
		if err != nil {
			t.Fatalf("warm=%v: %v", warm, err)
		}
		for j := 0; j < BatchWidth; j++ {
			if !ok[j] {
				t.Fatalf("warm=%v: column %d did not converge", warm, j)
			}
			am := patchedMatrix(t, base, ovs, j)
			solo := SolveOptions{Tol: 1e-10}
			if warm {
				solo.X0 = column(x0, j)
			}
			want, wantStats, err := CGPrecond(am, column(b, j), ic, solo)
			if err != nil {
				t.Fatalf("warm=%v col %d solo: %v", warm, j, err)
			}
			if !reflect.DeepEqual(got[j], want) {
				t.Errorf("warm=%v col %d: batched solution differs from solo (bitwise)", warm, j)
			}
			if stats[j] != wantStats {
				t.Errorf("warm=%v col %d: stats %+v, solo %+v", warm, j, stats[j], wantStats)
			}
		}
	}
}

// TestCGPrecondBatchMixedConvergence freezes columns at different
// iterations (very different RHS magnitudes and tolerances met at
// different times) and checks late columns are unperturbed by early ones.
func TestCGPrecondBatchMixedConvergence(t *testing.T) {
	base := laplacian2D(10, 2.3)
	n := base.N()
	ic, err := NewICPreconditioner(base)
	if err != nil {
		t.Fatal(err)
	}
	bcols := make([][]float64, 4)
	for j := range bcols {
		bcols[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		// Column 0 trivially easy (constant), column 3 rough.
		bcols[0][i] = 1
		bcols[1][i] = float64(i % 3)
		bcols[2][i] = math.Cos(float64(i) * 1.3)
		bcols[3][i] = math.Sin(float64(i*i%7)) * 50
	}
	b := interleave(bcols)
	got, stats, ok, err := CGPrecondBatch(base, nil, b, nil, ic, SolveOptions{}, GetBatchWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	iterSpread := map[int]bool{}
	for j := 0; j < BatchWidth; j++ {
		if !ok[j] {
			t.Fatalf("column %d failed", j)
		}
		iterSpread[stats[j].Iterations] = true
		want, wantStats, err := CGPrecond(base, column(b, j), ic, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[j], want) || stats[j] != wantStats {
			t.Errorf("col %d: mismatch vs solo (stats %+v vs %+v)", j, stats[j], wantStats)
		}
	}
	if len(iterSpread) < 2 {
		t.Fatalf("test wants columns converging at different iterations, got %v", stats)
	}
}

// TestCGPrecondBatchZeroRHS: a zero column returns its start unchanged
// with zero Stats, exactly like CGPrecond's bnorm == 0 short-circuit.
func TestCGPrecondBatchZeroRHS(t *testing.T) {
	base := laplacian2D(6, 1.5)
	n := base.N()
	ic, err := NewICPreconditioner(base)
	if err != nil {
		t.Fatal(err)
	}
	bcols := [][]float64{make([]float64, n), make([]float64, n)} // column 0 stays zero
	x0cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		bcols[1][i] = float64(i + 1)
		x0cols[0][i] = 3.25
	}
	got, stats, ok, err := CGPrecondBatch(base, nil, interleave(bcols), interleave(x0cols), ic, SolveOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok[0] || stats[0] != (Stats{}) {
		t.Errorf("zero column: ok=%v stats=%+v", ok[0], stats[0])
	}
	for i := 0; i < n; i++ {
		if got[0][i] != 3.25 {
			t.Fatalf("zero column start perturbed at %d: %g", i, got[0][i])
		}
	}
	if !ok[1] {
		t.Error("nonzero column failed")
	}
}

// TestCGPrecondBatchBreakdown: a column fails exactly when CGPrecond
// fails on its patched system, with CGPrecond's Stats and no solution,
// and its siblings are unperturbed. An override that makes one column's
// matrix indefinite trips the pᵀAp breakdown in that column only; an
// exhausted budget fails every column still iterating; and with no
// factorization every column fails with zero Stats, as CGPrecond does,
// a zero right-hand side included.
func TestCGPrecondBatchBreakdown(t *testing.T) {
	base := laplacian2D(8, 2.0)
	n := base.N()
	ic, err := NewICPreconditioner(base)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := base.DiagIndices()
	if err != nil {
		t.Fatal(err)
	}
	row := 20
	ovs := []DiagOverride{{
		Row: int32(row),
		K:   diag[row],
		// Column 1 gets a strongly negative diagonal → indefinite.
		Vals: padded([]float64{base.ValAt(int(diag[row])), -40, base.ValAt(int(diag[row])) + 1}),
	}}
	bcols := make([][]float64, 4)
	for j := range bcols {
		bcols[j] = make([]float64, n)
	}
	// Column 3, and the pads repeating it, keep a zero right-hand side.
	for j := 0; j < 3; j++ {
		for i := range bcols[j] {
			bcols[j][i] = math.Sin(float64(i)*0.7 + float64(j))
		}
	}
	b := interleave(bcols)
	for _, tc := range []struct {
		name string
		m    *ICPreconditioner
		opts SolveOptions
		fail []int // columns that must fail, so the case exercises its failure
	}{
		{"breakdown", ic, SolveOptions{}, []int{1}},
		{"budget", ic, SolveOptions{MaxIter: 3, Tol: 1e-14}, []int{0, 2}},
		{"no factorization", nil, SolveOptions{}, []int{0, 1, 2, 3}},
	} {
		got, stats, ok, err := CGPrecondBatch(base, ovs, b, nil, tc.m, tc.opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, j := range tc.fail {
			if ok[j] {
				t.Errorf("%s: column %d converged", tc.name, j)
			}
		}
		for j := 0; j < BatchWidth; j++ {
			want, wantStats, soloErr := CGPrecond(patchedMatrix(t, base, ovs, j), column(b, j), tc.m, tc.opts)
			if ok[j] != (soloErr == nil) || stats[j] != wantStats {
				t.Errorf("%s col %d: ok %v stats %+v; solo err %v stats %+v", tc.name, j, ok[j], stats[j], soloErr, wantStats)
			}
			if ok[j] && !reflect.DeepEqual(got[j], want) || !ok[j] && got[j] != nil {
				t.Errorf("%s col %d: solution differs from solo (ok %v)", tc.name, j, ok[j])
			}
		}
	}
}

func TestCGPrecondBatchValidation(t *testing.T) {
	base := laplacian2D(4, 1.0)
	n := base.N()
	ic, err := NewICPreconditioner(base)
	if err != nil {
		t.Fatal(err)
	}
	diag, _ := base.DiagIndices()
	good := make([]float64, n*BatchWidth)
	ones := padded([]float64{1})
	cases := []struct {
		name string
		run  func() error
	}{
		{"short rhs", func() error {
			_, _, _, err := CGPrecondBatch(base, nil, make([]float64, n), nil, ic, SolveOptions{}, nil)
			return err
		}},
		{"short start", func() error {
			_, _, _, err := CGPrecondBatch(base, nil, good, make([]float64, n), ic, SolveOptions{}, nil)
			return err
		}},
		{"override width", func() error {
			ovs := []DiagOverride{{Row: 1, K: diag[1], Vals: []float64{1}}}
			_, _, _, err := CGPrecondBatch(base, ovs, good, nil, ic, SolveOptions{}, nil)
			return err
		}},
		{"unsorted overrides", func() error {
			ovs := []DiagOverride{
				{Row: 2, K: diag[2], Vals: ones},
				{Row: 1, K: diag[1], Vals: ones},
			}
			_, _, _, err := CGPrecondBatch(base, ovs, good, nil, ic, SolveOptions{}, nil)
			return err
		}},
		{"override outside pattern", func() error {
			ovs := []DiagOverride{{Row: 1, K: int32(base.NNZ()) + 3, Vals: ones}}
			_, _, _, err := CGPrecondBatch(base, ovs, good, nil, ic, SolveOptions{}, nil)
			return err
		}},
	}
	for _, tc := range cases {
		if tc.run() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
