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

// TestCGPrecondBatchMatchesScalarBitwise is the core lockstep contract:
// every batched column must be bit-identical (reflect.DeepEqual, not
// tolerance) to a solo CGPrecond run against the patched matrix with the
// same shared preconditioner, start, and options — solutions and Stats.
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

	const w = 5
	// Override two diagonal rows with per-column values ≥ the base value
	// (keeps every column SPD), mirroring the thermal TEC diagonal patch.
	rows := []int{7, 40}
	ovs := make([]DiagOverride, 0, len(rows))
	for _, row := range rows {
		vals := make([]float64, w)
		for j := range vals {
			vals[j] = base.ValAt(int(diag[row])) + 0.3*float64(j)
		}
		ovs = append(ovs, DiagOverride{Row: int32(row), K: diag[row], Vals: vals})
	}

	b := make([]float64, n*w)
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			b[i*w+j] = math.Sin(float64(i)*0.31+float64(j)) + 0.1*float64(j)
		}
	}

	for _, warm := range []bool{false, true} {
		var x0 []float64
		if warm {
			x0 = make([]float64, n*w)
			for i := range x0 {
				x0[i] = 0.01 * float64(i%17)
			}
		}
		opts := SolveOptions{Tol: 1e-10}
		got, stats, ok, err := CGPrecondBatch(base, ovs, b, x0, ic, w, opts, nil)
		if err != nil {
			t.Fatalf("warm=%v: %v", warm, err)
		}
		for j := 0; j < w; j++ {
			if !ok[j] {
				t.Fatalf("warm=%v: column %d did not converge", warm, j)
			}
			am := patchedMatrix(t, base, ovs, j)
			bj := make([]float64, n)
			solo := SolveOptions{Tol: 1e-10}
			if warm {
				solo.X0 = make([]float64, n)
			}
			for i := 0; i < n; i++ {
				bj[i] = b[i*w+j]
				if warm {
					solo.X0[i] = x0[i*w+j]
				}
			}
			want, wantStats, err := CGPrecond(am, bj, ic, solo)
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
	const w = 4
	b := make([]float64, n*w)
	for i := 0; i < n; i++ {
		// Column 0 trivially easy (constant), column 3 rough.
		b[i*w+0] = 1
		b[i*w+1] = float64(i % 3)
		b[i*w+2] = math.Cos(float64(i) * 1.3)
		b[i*w+3] = math.Sin(float64(i*i%7)) * 50
	}
	got, stats, ok, err := CGPrecondBatch(base, nil, b, nil, ic, w, SolveOptions{}, GetBatchWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	iterSpread := map[int]bool{}
	for j := 0; j < w; j++ {
		if !ok[j] {
			t.Fatalf("column %d failed", j)
		}
		iterSpread[stats[j].Iterations] = true
		bj := make([]float64, n)
		for i := 0; i < n; i++ {
			bj[i] = b[i*w+j]
		}
		want, wantStats, err := CGPrecond(base, bj, ic, SolveOptions{})
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
	const w = 2
	b := make([]float64, n*w)
	x0 := make([]float64, n*w)
	for i := 0; i < n; i++ {
		b[i*w+1] = float64(i + 1) // column 0 stays zero
		x0[i*w+0] = 3.25
		x0[i*w+1] = 0
	}
	got, stats, ok, err := CGPrecondBatch(base, nil, b, x0, ic, w, SolveOptions{}, nil)
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

// TestCGPrecondBatchBreakdown: an override that makes one column's
// matrix indefinite must trip the pᵀAp breakdown for that column only,
// at the same iteration the solo solve fails, leaving siblings intact.
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
	const w = 3
	row := 20
	ovs := []DiagOverride{{
		Row: int32(row),
		K:   diag[row],
		// Column 1 gets a strongly negative diagonal → indefinite.
		Vals: []float64{base.ValAt(int(diag[row])), -40, base.ValAt(int(diag[row])) + 1},
	}}
	b := make([]float64, n*w)
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			b[i*w+j] = math.Sin(float64(i)*0.7 + float64(j))
		}
	}
	got, stats, ok, err := CGPrecondBatch(base, ovs, b, nil, ic, w, SolveOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok[1] {
		t.Fatal("indefinite column reported converged")
	}
	am := patchedMatrix(t, base, ovs, 1)
	bj := make([]float64, n)
	for i := 0; i < n; i++ {
		bj[i] = b[i*w+1]
	}
	_, soloStats, soloErr := CGPrecond(am, bj, ic, SolveOptions{})
	if soloErr == nil {
		t.Fatal("solo solve of indefinite column unexpectedly converged")
	}
	if stats[1].Iterations != soloStats.Iterations {
		t.Errorf("breakdown iteration %d, solo %d", stats[1].Iterations, soloStats.Iterations)
	}
	for _, j := range []int{0, 2} {
		if !ok[j] {
			t.Fatalf("healthy column %d failed", j)
		}
		am := patchedMatrix(t, base, ovs, j)
		for i := 0; i < n; i++ {
			bj[i] = b[i*w+j]
		}
		want, wantStats, err := CGPrecond(am, bj, ic, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[j], want) || stats[j] != wantStats {
			t.Errorf("healthy column %d perturbed by sibling breakdown", j)
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
	good := make([]float64, n*2)
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero width", func() error {
			_, _, _, err := CGPrecondBatch(base, nil, nil, nil, ic, 0, SolveOptions{}, nil)
			return err
		}},
		{"short rhs", func() error {
			_, _, _, err := CGPrecondBatch(base, nil, make([]float64, n), nil, ic, 2, SolveOptions{}, nil)
			return err
		}},
		{"short start", func() error {
			_, _, _, err := CGPrecondBatch(base, nil, good, make([]float64, n), ic, 2, SolveOptions{}, nil)
			return err
		}},
		{"nil preconditioner", func() error {
			_, _, _, err := CGPrecondBatch(base, nil, good, nil, nil, 2, SolveOptions{}, nil)
			return err
		}},
		{"override width", func() error {
			ovs := []DiagOverride{{Row: 1, K: diag[1], Vals: []float64{1}}}
			_, _, _, err := CGPrecondBatch(base, ovs, good, nil, ic, 2, SolveOptions{}, nil)
			return err
		}},
		{"unsorted overrides", func() error {
			ovs := []DiagOverride{
				{Row: 2, K: diag[2], Vals: []float64{1, 1}},
				{Row: 1, K: diag[1], Vals: []float64{1, 1}},
			}
			_, _, _, err := CGPrecondBatch(base, ovs, good, nil, ic, 2, SolveOptions{}, nil)
			return err
		}},
		{"override outside pattern", func() error {
			ovs := []DiagOverride{{Row: 1, K: int32(base.NNZ()) + 3, Vals: []float64{1, 1}}}
			_, _, _, err := CGPrecondBatch(base, ovs, good, nil, ic, 2, SolveOptions{}, nil)
			return err
		}},
	}
	for _, tc := range cases {
		if tc.run() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
