package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/core"
)

// perPointBackend hides the wrapped backend's BatchEvaluator capability,
// so a System built on it sweeps through the per-point carry path.
type perPointBackend struct{ backend.Evaluator }

// TestSurfaceBatchedMatchesPerPoint pins the row-batch submission: the
// batched sweep must classify every point like the per-point reference
// path (runaway flags identical) and agree on temperatures and powers to
// solver tolerance — the two paths warm-start differently (chained carry
// vs. first-solution seed), so bit-identity is not the contract here;
// determinism across worker counts is, and is pinned below.
func TestSurfaceBatchedMatchesPerPoint(t *testing.T) {
	setup := FastSetup()
	batchedSys, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	if !batchedSys.SupportsBatch() {
		t.Fatal("full-backend system does not support batching")
	}
	batched, err := SurfaceSystem(context.Background(), batchedSys, 9, 5, 0)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	refSys := core.NewSystem(perPointBackend{plain.Backend()})
	if refSys.SupportsBatch() {
		t.Fatal("per-point reference system still supports batching")
	}
	ref, err := SurfaceSystem(context.Background(), refSys, 9, 5, 0)
	if err != nil {
		t.Fatal(err)
	}

	for i := range ref {
		b, r := batched[i], ref[i]
		if b.Omega != r.Omega || b.ITEC != r.ITEC || b.Runaway != r.Runaway {
			t.Fatalf("point %d: grid/classification mismatch: %+v vs %+v", i, b, r)
		}
		if r.Runaway {
			continue
		}
		if math.Abs(b.MaxTemp-r.MaxTemp) > 1e-6 || math.Abs(b.Power-r.Power) > 1e-6 {
			t.Errorf("point %d (ω=%g, I=%g): batched (%g K, %g W) vs per-point (%g K, %g W)",
				i, b.Omega, b.ITEC, b.MaxTemp, b.Power, r.MaxTemp, r.Power)
		}
	}
}

// TestSurfaceBatchedParallelMatchesSerial: rows are independent batches,
// so the batched sweep is bit-deterministic for any worker count.
func TestSurfaceBatchedParallelMatchesSerial(t *testing.T) {
	setup := FastSetup()
	serialSys, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := SurfaceSystem(context.Background(), serialSys, 10, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	parSys, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	par, err := SurfaceSystem(context.Background(), parSys, 10, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("batched surface differs between 1 and 4 workers")
	}
}
