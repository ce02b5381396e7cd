package thermal

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"oftec/internal/sparse"
)

// This file is the batched-evaluation equivalence suite: EvaluateBatch
// is a pure performance transform under every zoning, so its results
// must be reflect.DeepEqual — bit-identical fields, Stats
// included — to the per-point reference protocol: within each ω-group
// the first point evaluates from a nil warm start and its solution seeds
// the remaining points (the sweep warm-start carry), or an explicit warm
// seeds everything.

// batchGrid is a small sweep covering memo-cold points, repeated points,
// and the fanless high-current runaway corner.
func batchGrid(cfg Config) []Point {
	var pts []Point
	for _, omega := range []float64{120, 250, 0} {
		for _, itec := range []float64{0, 0.8, cfg.TEC.MaxCurrent} {
			pts = append(pts, opPoint(omega, itec))
		}
	}
	return pts
}

// opPoint builds an operating point with one current per zone.
func opPoint(omega float64, currents ...float64) Point {
	return Point{Omega: omega, Currents: currents}
}

// perPointReference replays pts through the scalar per-point protocol on
// the given model.
func perPointReference(t *testing.T, m *Model, z *Zoning, pts []Point, warm []float64) []*Result {
	t.Helper()
	out := make([]*Result, len(pts))
	seeds := map[float64][]float64{}
	seen := map[float64]bool{}
	for i, p := range pts {
		seed := warm
		if warm == nil {
			if !seen[p.Omega] {
				seen[p.Omega] = true
				r0, err := m.EvaluateWarm(z, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = r0
				if !r0.Runaway {
					seeds[p.Omega] = r0.T
				}
				continue
			}
			seed = seeds[p.Omega]
		}
		res, err := m.EvaluateWarm(z, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func assertResultsDeepEqual(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: point %d (ω=%g): batched result differs from per-point reference\n got %+v\nwant %+v",
				label, i, want[i].Omega, got[i], want[i])
		}
	}
}

func TestEvaluateBatchMatchesPerPoint(t *testing.T) {
	cfg := testConfig()
	pts := batchGrid(cfg)

	batched := benchModel(t, cfg, "Basicmath")
	got, err := batched.EvaluateBatch(context.Background(), nil, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	reference := benchModel(t, cfg, "Basicmath")
	want := perPointReference(t, reference, nil, pts, nil)
	assertResultsDeepEqual(t, "cold", got, want)

	// With an explicit warm start every point seeds from it.
	warmRes := want[0]
	if warmRes.Runaway {
		t.Fatal("first grid point unexpectedly ran away")
	}
	b2 := benchModel(t, cfg, "Basicmath")
	got2, err := b2.EvaluateBatch(context.Background(), nil, pts, warmRes.T)
	if err != nil {
		t.Fatal(err)
	}
	r2 := benchModel(t, cfg, "Basicmath")
	want2 := perPointReference(t, r2, nil, pts, warmRes.T)
	assertResultsDeepEqual(t, "warm", got2, want2)
}

// TestEvaluateBatchFailuresMatchPerPoint: a column the lockstep solve
// fails is final, and its runaway Result, SolveStats included, is
// DeepEqual to the per-point one. It covers both ways a batched point
// fails: a CG breakdown (the fanless full-current corner turns its
// system indefinite), and an ω-slice that does not factor (at leakage
// ×20 no slice of this chip is positive definite enough for IC(0)).
func TestEvaluateBatchFailuresMatchPerPoint(t *testing.T) {
	cfg := testConfig()
	iMax := cfg.TEC.MaxCurrent
	// The first point of each ω-group solves per point; the rest share a
	// lockstep chunk.
	pts := []Point{opPoint(0, 0), opPoint(0, 0.8), opPoint(0, iMax), opPoint(0, iMax/2), opPoint(250, 0), opPoint(250, 1)}
	leaky := testConfig()
	leaky.Leakage.P0Density *= 20
	for _, tc := range []struct {
		name string
		cfg  Config
		// failed reports whether the reference exercises the failure the
		// case names.
		failed func(m *Model, want []*Result) bool
	}{
		{"breakdown", cfg, func(_ *Model, want []*Result) bool {
			st := want[2].SolveStats
			return want[2].Runaway && st.Iterations > 0 && st.Residual == 0
		}},
		{"no slice factorization", leaky, func(m *Model, want []*Result) bool {
			for _, r := range want {
				if m.slicePrecond(r.Omega) != nil || !r.Runaway || r.SolveStats != (sparse.Stats{}) {
					return false
				}
			}
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := benchModel(t, tc.cfg, "Basicmath").EvaluateBatch(context.Background(), nil, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := benchModel(t, tc.cfg, "Basicmath")
			want := perPointReference(t, ref, nil, pts, nil)
			if !tc.failed(ref, want) {
				t.Fatalf("the per-point reference does not exercise the %s", tc.name)
			}
			assertResultsDeepEqual(t, tc.name, got, want)
		})
	}
}

// TestEvaluateBatchSharesMemo: points already memoized answer from the
// memo (pointer-identical results), and a batch populates the memo so
// later per-point calls on the same model return the identical pointers.
func TestEvaluateBatchSharesMemo(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	pre, err := m.Evaluate(250, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{opPoint(250, 0), opPoint(250, 0.8), opPoint(250, 1.4)}
	got, err := m.EvaluateBatch(context.Background(), nil, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != pre {
		t.Error("memoized point re-solved in batch (pointer differs)")
	}
	for i, p := range pts {
		solo, err := m.EvaluateWarm(nil, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if solo != got[i] {
			t.Errorf("point %d: per-point call after batch returned a different pointer", i)
		}
	}
}

func TestEvaluateZonedBatchMatchesPerPoint(t *testing.T) {
	cfg := testConfig()
	batched := benchModel(t, cfg, "Basicmath")
	reference := benchModel(t, cfg, "Basicmath")

	assign := map[string]int{}
	for i, u := range cfg.Floorplan.Units() {
		assign[u.Name] = i % 2
	}
	zb, err := batched.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := reference.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}

	var pts []Point
	for _, omega := range []float64{150, 250} {
		for _, cur := range [][]float64{{0, 0}, {0.6, 1.2}, {1.4, 0.2}, {0.6, 1.2}} {
			pts = append(pts, Point{Omega: omega, Currents: cur})
		}
	}
	got, err := batched.EvaluateBatch(context.Background(), zb, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := perPointReference(t, reference, zr, pts, nil)
	assertResultsDeepEqual(t, "zoned", got, want)

	// A k=1 zoning is the one-zone deployment: it shares the nil
	// zoning's memo entry.
	one := map[string]int{}
	for _, u := range cfg.Floorplan.Units() {
		one[u.Name] = 0
	}
	z1, err := batched.NewZoning(one, 1)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := batched.EvaluateBatch(context.Background(), z1, []Point{opPoint(200, 0.9)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := batched.Evaluate(200, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if gz[0] != gs {
		t.Error("k=1 zoned batch did not share the scalar memo entry")
	}
}

// TestEvaluateBatchSpansDynamicPowerFlush: a batch issued after a
// SetDynamicPower flush must solve against the new power map, not the
// stale memo, and still match per-point results under the new map.
func TestEvaluateBatchSpansDynamicPowerFlush(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	pts := []Point{opPoint(200, 0), opPoint(200, 0.7), opPoint(200, 1.3), opPoint(120, 0.7)}
	before, err := m.EvaluateBatch(context.Background(), nil, pts, nil)
	if err != nil {
		t.Fatal(err)
	}

	newMap := uniformMap(&cfg, 18)
	if err := m.SetDynamicPower(newMap); err != nil {
		t.Fatal(err)
	}
	after, err := m.EvaluateBatch(context.Background(), nil, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if reflect.DeepEqual(after[i], before[i]) {
			t.Errorf("point %d: batch after SetDynamicPower returned the pre-flush result", i)
		}
	}

	ref, err := NewModel(cfg, newMap)
	if err != nil {
		t.Fatal(err)
	}
	want := perPointReference(t, ref, nil, pts, nil)
	assertResultsDeepEqual(t, "post-flush", after, want)
}

// countdownCtx reports cancellation only after Err has been consulted a
// fixed number of times, so the batch runs its first chunks and is then
// cancelled between chunks.
type countdownCtx struct {
	remaining int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

func TestEvaluateBatchCancelledMidBatch(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")

	// Already-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.EvaluateBatch(ctx, nil, batchGrid(cfg), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}

	// Cancelled mid-batch: the first ω-group proceeds, then the run stops
	// with no results; the model stays healthy for the next call.
	mid := &countdownCtx{remaining: 2}
	if _, err := m.EvaluateBatch(mid, nil, batchGrid(cfg), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancel: err = %v, want context.Canceled", err)
	}
	res, err := m.EvaluateBatch(context.Background(), nil, batchGrid(cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("point %d nil after recovery from cancellation", i)
		}
	}
}

// TestEvaluateBatchValidation: malformed points and warm hints are
// rejected before any solve.
func TestEvaluateBatchValidation(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	if _, err := m.EvaluateBatch(context.Background(), nil, []Point{opPoint(-1, 0)}, nil); err == nil {
		t.Error("negative ω accepted")
	}
	if _, err := m.EvaluateBatch(context.Background(), nil, []Point{opPoint(100, 1)}, make([]float64, 3)); err == nil {
		t.Error("short warm accepted")
	}
	res, err := m.EvaluateBatch(context.Background(), nil, nil, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v", res, err)
	}
	assign := map[string]int{}
	for i, u := range cfg.Floorplan.Units() {
		assign[u.Name] = i % 2
	}
	z, err := m.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateBatch(context.Background(), nil, []Point{opPoint(100, 1, 1)}, nil); err == nil {
		t.Error("two currents accepted under the one-zone zoning")
	}
	if _, err := m.EvaluateBatch(context.Background(), z, []Point{opPoint(100, 1)}, nil); err == nil {
		t.Error("current-count mismatch accepted")
	}
	if _, err := m.EvaluateBatch(context.Background(), z, []Point{opPoint(100, 1, -2)}, nil); err == nil {
		t.Error("negative zone current accepted")
	}
}
