package thermal

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomPoints draws n fixed-seed operating points for a k-zone control
// space inside the box: ω over the upper part of the actuator range, each
// zone current over [0, I_max]. The points share three ω values so the
// batch path sees multi-point ω-groups, and one point repeats.
func randomPoints(rng *rand.Rand, cfg Config, k, n int) []Point {
	uMax := cfg.UMax()
	omegas := make([]float64, 3)
	for i := range omegas {
		omegas[i] = uMax * (0.35 + 0.65*rng.Float64())
	}
	pts := make([]Point, n)
	for i := range pts {
		cur := make([]float64, k)
		for z := range cur {
			cur[z] = cfg.TEC.MaxCurrent * rng.Float64()
		}
		pts[i] = Point{Omega: omegas[i%len(omegas)], Currents: cur}
	}
	pts[n-1] = pts[1]
	return pts
}

// oneZone is the explicit single-zone zoning: every unit in zone 0.
func oneZone(t *testing.T, m *Model) *Zoning {
	t.Helper()
	assign := map[string]int{}
	for _, u := range m.Config().Floorplan.Units() {
		assign[u.Name] = 0
	}
	z, err := m.NewZoning(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// TestEvaluatePathsAgreeOnRandomPoints is the property suite for the one
// evaluation path per verb: for k ∈ {1, 3, 8, 9} control zones and
// fixed-seed random points inside the box,
//
//   - EvaluateBatch ≡ per-point EvaluateWarm under the batch warm-start
//     protocol (reflect.DeepEqual, SolveStats included);
//   - EvaluateGrad(...).Result ≡ EvaluateWarm;
//   - for k = 1, an explicit one-zone zoning ≡ the nil zoning for all
//     three verbs, each on a fresh model so no memo can mask a difference.
func TestEvaluatePathsAgreeOnRandomPoints(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 3, 8, 9} {
		pts := randomPoints(rng, cfg, k, 10)
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			batched := benchModel(t, cfg, "Basicmath")
			reference := benchModel(t, cfg, "Basicmath")
			got, err := batched.EvaluateBatch(context.Background(), testZoning(t, batched, k), pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := perPointReference(t, reference, testZoning(t, reference, k), pts, nil)
			assertResultsDeepEqual(t, "batch", got, want)

			m := benchModel(t, cfg, "Basicmath")
			z := testZoning(t, m, k)
			solved := 0
			for i, p := range pts {
				res, err := m.EvaluateWarm(z, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				g, err := m.EvaluateGrad(z, p)
				if res.Runaway {
					if err == nil {
						t.Errorf("point %d: gradient of a runaway point", i)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g.Result, res) {
					t.Errorf("point %d: gradient's steady state differs from EvaluateWarm", i)
				}
				solved++
			}
			t.Logf("%d of %d points below the runaway wall", solved, len(pts))
			if solved < len(pts)/2 {
				t.Errorf("only %d of %d random points solved; the draw no longer exercises the solve paths", solved, len(pts))
			}
		})
	}

	t.Run("explicit one zone", func(t *testing.T) {
		pts := randomPoints(rng, cfg, 1, 10)
		unzoned := benchModel(t, cfg, "Basicmath")
		zoned := benchModel(t, cfg, "Basicmath")
		z1 := oneZone(t, zoned)

		gotBatch, err := zoned.EvaluateBatch(context.Background(), z1, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBatch, err := unzoned.EvaluateBatch(context.Background(), nil, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsDeepEqual(t, "batch", gotBatch, wantBatch)

		unzoned = benchModel(t, cfg, "Basicmath")
		zoned = benchModel(t, cfg, "Basicmath")
		z1 = oneZone(t, zoned)
		for i, p := range pts {
			got, err := zoned.EvaluateWarm(z1, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := unzoned.EvaluateWarm(nil, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("point %d: one-zone EvaluateWarm differs from unzoned", i)
			}
		}

		unzoned = benchModel(t, cfg, "Basicmath")
		zoned = benchModel(t, cfg, "Basicmath")
		z1 = oneZone(t, zoned)
		for i, p := range pts {
			got, errZ := zoned.EvaluateGrad(z1, p)
			want, errN := unzoned.EvaluateGrad(nil, p)
			if (errZ == nil) != (errN == nil) {
				t.Fatalf("point %d: one-zone gradient error %v, unzoned %v", i, errZ, errN)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("point %d: one-zone EvaluateGrad differs from unzoned", i)
			}
		}
	})
}
