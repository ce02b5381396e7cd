package core

import (
	"context"
	"math"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/workload"
)

// TestEvaluateWarmMatchesCold pins the warm-start contract: the hint only
// steers the iterative solver, so a warm-started solve agrees with the
// cold path to solver tolerance and never changes the runaway verdict.
func TestEvaluateWarmMatchesCold(t *testing.T) {
	cold := benchSystem(t, "CRC32")
	warm := benchSystem(t, "CRC32")

	ref, err := evalAt(cold, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Solve a neighboring point first, then hand its field forward.
	near, err := evalAt(warm, 210, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.EvaluateContext(context.Background(), nil, backend.Scalar(200, 1), near.T)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runaway != ref.Runaway {
		t.Fatalf("warm start changed the runaway verdict: %v vs %v", got.Runaway, ref.Runaway)
	}
	if d := math.Abs(got.MaxChipTemp - ref.MaxChipTemp); d > 1e-6 {
		t.Errorf("warm-started Tmax differs from cold by %g K", d)
	}

	// Hits ignore the hint entirely: the cached pointer comes back even
	// with a fresh warm field attached.
	again, err := warm.EvaluateContext(context.Background(), nil, backend.Scalar(200, 1), ref.T)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Error("cache hit did not return the stored result")
	}
}

// coldBackend passes every solve a nil warm hint, so a run through it
// starts every CG solve from the uniform-ambient field: the reference an
// anchored run is held to.
type coldBackend struct{ backend.Evaluator }

func (c coldBackend) Evaluate(ctx context.Context, op backend.OpPoint, _ []float64) (*thermal.Result, error) {
	return c.Evaluator.Evaluate(ctx, op, nil)
}

// TestAnchoredRunMatchesCold runs Algorithm 1 on every Table-2 benchmark
// twice: anchored, and through a backend that drops every warm hint. The
// anchor only steers CG, so the outcomes agree to solver tolerance: 𝒫 to
// 1e-8 relative, and ω* and I* to 1e-5 of their spans.
func TestAnchoredRunMatchesCold(t *testing.T) {
	for _, b := range workload.Names {
		t.Run(b, func(t *testing.T) {
			anchored, err := benchSystem(t, b).Run(Options{Mode: ModeHybrid})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewSystem(coldBackend{benchSystem(t, b).Backend()}).Run(Options{Mode: ModeHybrid})
			if err != nil {
				t.Fatal(err)
			}
			if anchored.Feasible != cold.Feasible {
				t.Fatalf("feasibility differs: anchored %v, cold %v", anchored.Feasible, cold.Feasible)
			}
			cfg := testConfig()
			t.Logf("anchored vs cold: 𝒫 %.12g vs %.12g W, ω* %.9g vs %.9g, I* %.9g vs %.9g",
				anchored.CoolingPower(), cold.CoolingPower(), anchored.Omega, cold.Omega, anchored.ITEC, cold.ITEC)
			if d := math.Abs(anchored.CoolingPower()-cold.CoolingPower()) / cold.CoolingPower(); d > 1e-8 {
				t.Errorf("𝒫 differs by %g relative", d)
			}
			if d := math.Abs(anchored.Omega-cold.Omega) / cfg.UMax(); d > 1e-5 {
				t.Errorf("ω* differs by %g of its span", d)
			}
			if d := math.Abs(anchored.ITEC-cold.ITEC) / cfg.TEC.MaxCurrent; d > 1e-5 {
				t.Errorf("I* differs by %g of its span", d)
			}
		})
	}
}

// TestAnchorHintReachesCG checks that an anchored solve starts CG from the
// incumbent's field: at a Basicmath SQP iterate, every finite-difference
// probe takes fewer CG iterations than the same probe solved cold. A hint
// dropped anywhere between the evaluation cache, the backend and the
// thermal model would leave the counts equal.
func TestAnchorHintReachesCG(t *testing.T) {
	var iterates [][]float64
	trace := func(rec solver.TraceRecord) { iterates = append(iterates, rec.X) }
	if _, err := benchSystem(t, "Basicmath").Run(Options{Mode: ModeHybrid, Workers: 1, Solver: solver.Options{Trace: trace}}); err != nil {
		t.Fatal(err)
	}
	if len(iterates) == 0 {
		t.Fatal("the run accepted no iterate")
	}
	xk := iterates[0]

	s := benchSystem(t, "Basicmath")
	bnd, err := s.binding(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	span := []float64{cfg.UMax(), cfg.TEC.MaxCurrent}
	temp := func(eval vecEval) (solver.Func, []solver.Func) {
		return func(x []float64) float64 { return maxTempObj(eval, x) }, nil
	}
	f, _ := anchoredProblem(bnd, temp, []float64{0, 0}, span).Near(xk)
	for i := range xk {
		probe := append([]float64(nil), xk...)
		probe[i] += 1e-5 * span[i]
		f(probe)
		// The anchored solve filed its Result in the cache; this is a hit.
		warm, err := evalAt(s, probe[0], probe[1])
		if err != nil {
			t.Fatal(err)
		}
		cold, err := evalAt(benchSystem(t, "Basicmath"), probe[0], probe[1])
		if err != nil {
			t.Fatal(err)
		}
		w, c := warm.SolveStats.Iterations, cold.SolveStats.Iterations
		t.Logf("probe along axis %d: %d CG iterations anchored, %d cold", i, w, c)
		if w >= c {
			t.Errorf("probe along axis %d: the anchor saved no CG iteration", i)
		}
	}
}
