package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/serve"
	"oftec/internal/workload"
)

// reducedRunner is a solve workload shrunk for tests: service
// resolution, two benchmarks per cycle, a 10×10 sweep, and references
// computed on the spot.
func reducedRunner(t *testing.T, kind solveKind, name string) *solveRunner {
	t.Helper()
	s := newSolveRunner(kind, name, 7, nil)
	s.setup = experiments.FastSetup()
	s.grid = 10
	s.order = s.order[:2]
	ans, err := s.reference(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.refs = references{name: ans}
	return s
}

// TestTracedMatchesUntraced runs a reduced size of every workload with
// and without the tracing decorator; the answers must be identical.
func TestTracedMatchesUntraced(t *testing.T) {
	plain := experiments.FastSetup()
	tr := plain
	tr.Backend = tracePrefix + "full"
	for _, name := range []string{"Basicmath", "Susan"} {
		a, err := plain.System(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tr.System(name)
		if err != nil {
			t.Fatal(err)
		}

		oa, err := a.Run(core.Options{Mode: core.ModeHybrid})
		if err != nil {
			t.Fatal(err)
		}
		ob, err := b.Run(core.Options{Mode: core.ModeHybrid})
		if err != nil {
			t.Fatal(err)
		}
		oa.Runtime, ob.Runtime = 0, 0
		if !reflect.DeepEqual(oa, ob) {
			t.Errorf("%s: table2 outcome differs through the decorator", name)
		}

		za, err := runZoned8(a)
		if err != nil {
			t.Fatal(err)
		}
		zb, err := runZoned8(b)
		if err != nil {
			t.Fatal(err)
		}
		za.Runtime, zb.Runtime = 0, 0
		if !reflect.DeepEqual(za, zb) {
			t.Errorf("%s: zoned outcome differs through the decorator", name)
		}

		sa, err := experiments.SurfaceSystem(context.Background(), a, 10, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := experiments.SurfaceSystem(context.Background(), b, 10, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: surface differs through the decorator", name)
		}
		if a.CacheStats() != b.CacheStats() {
			t.Errorf("%s: cache traffic differs: %+v vs %+v", name, a.CacheStats(), b.CacheStats())
		}
	}
}

// TestServeTracedMatchesUntraced sends every request kind to each chip
// and to its traced twin; the decoded answers must be identical apart
// from the measured runtime.
func TestServeTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	r, err := newServeRunner(ctx, 3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	s := r.(*serveRunner)
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	for _, c := range s.chips {
		for _, tc := range []struct {
			path string
			body func(serve.ChipSpec) any
		}{
			{"/v1/evaluate", func(ch serve.ChipSpec) any { b := c.hotScalar[1]; b.Chip = ch; return b }},
			{"/v1/evaluate", func(ch serve.ChipSpec) any { b := c.hotZoned[1]; b.Chip = ch; return b }},
			{"/v1/optimize", func(ch serve.ChipSpec) any { return serve.OptimizeRequest{Chip: ch} }},
			{"/v1/sweep", func(ch serve.ChipSpec) any { return serve.SweepRequest{Chip: ch, NOmega: 4, NI: 4} }},
			{"/v1/pareto", func(ch serve.ChipSpec) any { return serve.ParetoRequest{Chip: ch, TMaxC: paretoTMaxC} }},
		} {
			var got [2]map[string]any
			for i, traced := range []bool{false, true} {
				raw, err := s.post(ctx, tc.path, tc.body(chipFor(c.spec, traced)), 1, traced)
				if err != nil {
					t.Fatalf("%s %s: %v", c.spec.Bench, tc.path, err)
				}
				if err := json.Unmarshal(raw, &got[i]); err != nil {
					t.Fatal(err)
				}
				delete(got[i], "runtime_ms")
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("%s %s: traced answer differs:\n%v\n%v", c.spec.Bench, tc.path, got[0], got[1])
			}
		}
	}
}

// TestCapabilityResolution checks that the backend layer's capability
// probes resolve to the same targets through the decorator.
func TestCapabilityResolution(t *testing.T) {
	setup := experiments.FastSetup()
	bench, err := workload.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := bench.PowerMap(setup.Config.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	op := backend.Scalar(300, 1.5)
	for _, name := range tracedBackends {
		plain, err := backend.New(name, setup.Config, pm)
		if err != nil {
			t.Fatal(err)
		}
		tr := newRecorder().wrap(plain)

		// ModelOf: the very same model.
		mp, okP := backend.ModelOf(plain)
		mt, okT := backend.ModelOf(tr)
		if okP != okT || mp != mt {
			t.Errorf("%s: ModelOf resolves differently through the decorator", name)
		}

		// Authoritative: the decorated form of the same authoritative
		// backend.
		auth, ok := backend.Authoritative(tr).(*traced)
		if !ok || auth.inner != backend.Authoritative(plain) {
			t.Errorf("%s: Authoritative does not land on the decorated authoritative backend", name)
		}

		// GradientOf: both resolve, to the same gradients.
		gp, okP := backend.GradientOf(plain)
		gt, okT := backend.GradientOf(evalcache.New(0).Bind(tr))
		if okP != okT {
			t.Fatalf("%s: GradientOf found=%v plain, %v traced", name, okP, okT)
		}
		if okP {
			a, err := gp.EvaluateGrad(context.Background(), op)
			if err != nil {
				t.Fatal(err)
			}
			b, err := gt.EvaluateGrad(context.Background(), op)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: gradients differ through the decorator", name)
			}
		}

		// The batch probe: the decorator batches exactly when the wrapped
		// backend does, with the same answers.
		ops := []backend.OpPoint{backend.Scalar(250, 0.5), backend.Scalar(250, 2), backend.Scalar(400, 1)}
		if be, ok := plain.(backend.BatchEvaluator); ok {
			a, err := be.EvaluateBatch(context.Background(), ops, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tr.EvaluateBatch(context.Background(), ops, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: batch answers differ through the decorator", name)
			}
		} else {
			t.Errorf("%s: backend lost its batch capability", name)
		}

		// Zoned evaluation through the decorator.
		m, _ := backend.ModelOf(plain)
		z, err := m.SpreadZoning(4)
		if err != nil {
			t.Fatal(err)
		}
		zp, err := plain.(backend.Zoner).WithZoning(z)
		if err != nil {
			t.Fatal(err)
		}
		zt, err := tr.WithZoning(z)
		if err != nil {
			t.Fatal(err)
		}
		zop := backend.OpPoint{Omega: 300, Currents: []float64{1, 2, 0.5, 1.5}}
		ra, err := zp.Evaluate(context.Background(), zop, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := zt.Evaluate(context.Background(), zop, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: zoned answer differs through the decorator", name)
		}
	}
}

// countMetrics are the per-layer figures that must repeat exactly for a
// seed: they count work, not time.
var countMetrics = []string{
	"solver.iterations_per_op", "solver.func_evals_per_op", "solver.grad_evals_per_op",
	"evalcache.hits", "evalcache.waits", "evalcache.misses", "evalcache.hit_ratio",
	"evalcache.rotations", "evalcache.batch_points",
	"backend.evaluate_calls", "backend.batch_calls", "backend.batch_points", "backend.grad_calls",
	"sparse.cg_iters_per_solve",
}

// TestTracedCountsRepeat runs each reduced solve workload traced twice
// with one seed; every count must repeat exactly.
func TestTracedCountsRepeat(t *testing.T) {
	for _, tc := range []struct {
		kind solveKind
		name string
	}{
		{kindTable2, "table2-oftec"},
		{kindZoned8, "zoned8-adjoint"},
		{kindSweep, "sweep-40x40"},
	} {
		def := &workloadDef{name: tc.name, setup: func(ctx context.Context, _ uint64, _ references, _ bool) (runner, error) {
			return reducedRunner(t, tc.kind, tc.name), nil
		}}
		var runs [2]*measurement
		for i := range runs {
			m, err := measure(context.Background(), def, 7, time.Nanosecond, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed > 0 {
				t.Fatalf("%s: %d failed operations", tc.name, m.failed)
			}
			runs[i] = m
		}
		for _, k := range countMetrics {
			a, b := runs[0].metrics[k].Value, runs[1].metrics[k].Value
			if a != b {
				t.Errorf("%s: %s = %v then %v", tc.name, k, a, b)
			}
		}
		if runs[0].metrics["backend.evaluate_calls"].Value+runs[0].metrics["backend.batch_calls"].Value <= 0 {
			t.Errorf("%s: traced run recorded no backend calls", tc.name)
		}
	}
}
