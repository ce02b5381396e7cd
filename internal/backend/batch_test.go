package backend

import (
	"context"
	"reflect"
	"testing"

	"oftec/internal/thermal"
)

// opGrid is a small scalar sweep with repeated fan speeds, so batches
// exercise the per-ω grouping and warm-start carry.
func opGrid(omegaMax, iMax float64) []OpPoint {
	var ops []OpPoint
	for _, of := range []float64{0.4, 0.8} {
		for _, cf := range []float64{0, 0.5, 1} {
			ops = append(ops, Scalar(of*omegaMax, cf*iMax))
		}
	}
	return ops
}

// TestBatchEvaluatorConformance pins that every shipped backend exposes
// the BatchEvaluator capability and that batched results match per-point
// Evaluate exactly (DeepEqual) on a fresh replica.
func TestBatchEvaluatorConformance(t *testing.T) {
	for _, name := range []string{"full", "rom"} {
		t.Run(name, func(t *testing.T) {
			p := testPlant(t, name, "Basicmath")
			be, ok := p.(BatchEvaluator)
			if !ok {
				t.Fatalf("%s backend does not implement BatchEvaluator", name)
			}
			cfg := p.Config()
			ops := opGrid(cfg.Fan.OmegaMax, cfg.TEC.MaxCurrent)
			got, err := be.EvaluateBatch(context.Background(), ops, nil)
			if err != nil {
				t.Fatal(err)
			}

			ref := testPlant(t, name, "Basicmath")
			want := make([]*thermal.Result, len(ops))
			seeds := map[float64][]float64{}
			seen := map[float64]bool{}
			for i, op := range ops {
				var seed []float64
				if seen[op.Omega] {
					seed = seeds[op.Omega]
				}
				res, err := ref.Evaluate(context.Background(), op, seed)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
				if !seen[op.Omega] {
					seen[op.Omega] = true
					if !res.Runaway {
						seeds[op.Omega] = res.T
					}
				}
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("point %d (ω=%g, I=%g): batched result differs from per-point",
						i, ops[i].Omega, ops[i].Currents[0])
				}
			}
		})
	}
}

// TestBatchEvaluatorZoned pins the zoned batch path against per-point
// zoned evaluation.
func TestBatchEvaluatorZoned(t *testing.T) {
	p := testPlant(t, "full", "Basicmath")
	full := p.(*Full)
	assign := map[string]int{}
	for i, u := range full.Config().Floorplan.Units() {
		assign[u.Name] = i % 2
	}
	z, err := full.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	zev, err := full.WithZoning(z)
	if err != nil {
		t.Fatal(err)
	}
	be, ok := zev.(BatchEvaluator)
	if !ok {
		t.Fatal("zoned full evaluator does not implement BatchEvaluator")
	}

	ops := []OpPoint{
		{Omega: 180, Currents: []float64{0, 0}},
		{Omega: 180, Currents: []float64{0.6, 1.1}},
		{Omega: 240, Currents: []float64{1.2, 0.3}},
	}
	got, err := be.EvaluateBatch(context.Background(), ops, nil)
	if err != nil {
		t.Fatal(err)
	}

	rp := testPlant(t, "full", "Basicmath").(*Full)
	rz, err := rp.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := rp.WithZoning(rz)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[float64][]float64{}
	seen := map[float64]bool{}
	for i, op := range ops {
		var seed []float64
		if seen[op.Omega] {
			seed = seeds[op.Omega]
		}
		want, err := rev.Evaluate(context.Background(), op, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[op.Omega] {
			seen[op.Omega] = true
			if !want.Runaway {
				seeds[op.Omega] = want.T
			}
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("zoned point %d: batched result differs from per-point", i)
		}
	}

	// A zoned point in a scalar batch is rejected, like per-point.
	if _, err := full.EvaluateBatch(context.Background(), ops, nil); err == nil {
		t.Error("scalar batch accepted zoned points without zoning")
	}
}

// TestROMBatchFallsThrough pins the miss handling: in-hull points answer
// reduced, out-of-hull points batch through the full sibling, indices
// preserved.
func TestROMBatchFallsThrough(t *testing.T) {
	p := testPlant(t, "rom", "Basicmath")
	rom := p.(*ROM)
	cfg := p.Config()

	ops := []OpPoint{
		Scalar(0.7*cfg.Fan.OmegaMax, 0.5*cfg.TEC.MaxCurrent), // in-hull
		Scalar(0.1, 0), // below the ω floor: rejected, runaway on full
		Scalar(0.5*cfg.Fan.OmegaMax, 0),
	}
	got, err := rom.EvaluateBatch(context.Background(), ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rom.ROMStats()
	if s.Rejections == 0 {
		t.Errorf("no ROM rejection recorded for the out-of-hull point: %+v", s)
	}
	if !got[1].Runaway {
		t.Error("out-of-hull point did not classify as runaway through the full batch")
	}
	for i, r := range got {
		if r == nil {
			t.Fatalf("point %d nil", i)
		}
		if r.Omega != ops[i].Omega {
			t.Errorf("point %d: result ω=%g, want %g (index mix-up)", i, r.Omega, ops[i].Omega)
		}
	}
}
