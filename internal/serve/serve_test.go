package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oftec/internal/backend"
	"oftec/internal/experiments"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// post drives the handler directly: no sockets, so concurrency tests
// measure the service layer, not the TCP stack.
func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return v
}

// TestEvaluateScalar checks the served steady state against a direct
// library evaluation of the same chip.
func TestEvaluateScalar(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 3000, ITecA: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decodeBody[EvaluateResponse](t, rec)

	spec := ChipSpec{}
	cfg, err := spec.config()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := experiments.Setup{Config: cfg, Benchmarks: workload.All()}.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.EvaluateContext(context.Background(), nil, backend.Scalar(units.RPMToRadPerSec(3000), 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runaway {
		t.Fatal("unexpected runaway at 3000 RPM")
	}
	if diff := math.Abs(got.MaxTempC - units.KToC(want.MaxChipTemp)); diff > 1e-9 {
		t.Errorf("MaxTempC = %g, want %g (diff %g)", got.MaxTempC, units.KToC(want.MaxChipTemp), diff)
	}
	if diff := math.Abs(got.CoolingPowerW - want.CoolingPower()); diff > 1e-9 {
		t.Errorf("CoolingPowerW = %g, want %g", got.CoolingPowerW, want.CoolingPower())
	}
	if got.MeetsConstraint != want.MeetsConstraint(cfg.TMax) {
		t.Errorf("MeetsConstraint = %t, want %t", got.MeetsConstraint, want.MeetsConstraint(cfg.TMax))
	}
}

// TestEvaluateZonedWideCached exercises the k > maxInlineK wide-key
// path through the full HTTP stack: 16 zones over the EV6's 18 units,
// where a repeat request must hit the cache, not re-solve.
func TestEvaluateZonedWideCached(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	// Nine zones: above maxInlineK (8), so the cache takes the wide-key
	// path, while round-robin still gives every zone two units (and so at
	// least one TEC module) on the 18-unit EV6.
	currents := make([]float64, 9)
	for i := range currents {
		currents[i] = 0.5 + 0.1*float64(i)
	}
	req := EvaluateRequest{
		OmegaRPM:  4000,
		CurrentsA: currents,
		Zoning:    &ZoneSpec{Zones: 9},
	}
	rec := post(t, h, "/v1/evaluate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	first := decodeBody[EvaluateResponse](t, rec)
	before := s.cache.Stats()

	rec = post(t, h, "/v1/evaluate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", rec.Code, rec.Body.String())
	}
	second := decodeBody[EvaluateResponse](t, rec)
	after := s.cache.Stats()

	if after.Misses != before.Misses {
		t.Errorf("repeat request missed the cache: misses %d → %d", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("repeat request: hits %d → %d, want +1", before.Hits, after.Hits)
	}
	if first.MaxTempC != second.MaxTempC {
		t.Errorf("cached answer differs: %g vs %g", first.MaxTempC, second.MaxTempC)
	}
}

// TestModelPoolSingleflight races many cold requests for one chip: the
// pool must build exactly one model and share it.
func TestModelPoolSingleflight(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000 + 100*float64(i), ITecA: 1})
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d: status %d", i, c)
		}
	}
	if builds := s.pool.builds.Load(); builds != 1 {
		t.Errorf("pool built %d models for one chip, want 1", builds)
	}
	if size := s.pool.size(); size != 1 {
		t.Errorf("pool holds %d entries, want 1", size)
	}
}

// TestConcurrentEvaluatesCoalesce checks cross-request coalescing: M
// identical cold evaluates produce exactly one backend solve — one miss,
// with the other M−1 served as hits or singleflight waits.
func TestConcurrentEvaluatesCoalesce(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	// Warm the model pool so the race below is about the cache only.
	if rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 1000, ITecA: 0}); rec.Code != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", rec.Code, rec.Body.String())
	}
	before := s.cache.Stats()

	const m = 8
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 3456, ITecA: 1.5})
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	after := s.cache.Stats()

	if misses := after.Misses - before.Misses; misses != 1 {
		t.Errorf("%d misses for %d identical requests, want 1", misses, m)
	}
	if served := (after.Hits - before.Hits) + (after.Waits - before.Waits); served != m-1 {
		t.Errorf("hits+waits = %d, want %d", served, m-1)
	}
}

// TestAdmissionControl pins the throttle path: with every slot taken, a
// request is refused with 429 and a Retry-After hint, while /healthz and
// /statz stay reachable.
func TestAdmissionControl(t *testing.T) {
	s := New(Options{MaxInflight: 1, AdmitWait: time.Millisecond})
	h := s.Handler()

	s.sem <- struct{}{} // occupy the only slot
	rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz blocked by admission control: %d", rec.Code)
	}
	if rec := get(t, h, "/statz"); rec.Code != http.StatusOK {
		t.Errorf("statz blocked by admission control: %d", rec.Code)
	}
	<-s.sem

	rec = post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000})
	if rec.Code != http.StatusOK {
		t.Fatalf("freed server answered %d: %s", rec.Code, rec.Body.String())
	}
	stats := decodeBody[StatzResponse](t, get(t, h, "/statz"))
	if stats.Req.Throttled != 1 {
		t.Errorf("throttled = %d, want 1", stats.Req.Throttled)
	}
}

// TestOptimizeDeadline drives an optimize whose request context is
// already cancelled: the cancellation must propagate into the solver and
// the request return immediately — either 200 carrying a cancelled stop
// reason (best-so-far semantics) or 504 if the run produced nothing. A
// live timeout_ms is the same plumbing with a timer in front; a
// pre-cancelled parent makes the race deterministic under test.
func TestOptimizeDeadline(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	// Warm the model pool so cancellation hits the solve, not the build.
	if rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000}); rec.Code != http.StatusOK {
		t.Fatalf("warmup: status %d", rec.Code)
	}

	b, err := json.Marshal(OptimizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	switch rec.Code {
	case http.StatusOK:
		resp := decodeBody[OptimizeResponse](t, rec)
		cancelled := strings.Contains(resp.Opt1Stopped, "cancelled") ||
			strings.Contains(resp.Opt2Stopped, "cancelled")
		if !cancelled {
			t.Errorf("cancelled run reported stops %q/%q, want a cancelled phase",
				resp.Opt1Stopped, resp.Opt2Stopped)
		}
	case http.StatusGatewayTimeout, http.StatusTooManyRequests:
		// The context died before the solve produced anything (admission
		// itself may also observe the dead context).
	default:
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestOptimizeFull runs a real (unbounded) optimize and sanity-checks
// the operating point against the chip's limits.
func TestOptimizeFull(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/optimize", OptimizeRequest{Chip: ChipSpec{Bench: "CRC32"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[OptimizeResponse](t, rec)
	if !resp.Feasible {
		t.Fatalf("CRC32 at service resolution should be feasible: %+v", resp)
	}
	spec := ChipSpec{}
	cfg, err := spec.config()
	if err != nil {
		t.Fatal(err)
	}
	if resp.OmegaRPM < 0 || resp.OmegaRPM > units.RadPerSecToRPM(cfg.Fan.OmegaMax)+1 {
		t.Errorf("ω* = %g RPM outside [0, max]", resp.OmegaRPM)
	}
	if resp.MaxTempC >= units.KToC(cfg.TMax) {
		t.Errorf("T* = %g °C not under the %g °C threshold", resp.MaxTempC, units.KToC(cfg.TMax))
	}
	if resp.FuncEvals <= 0 {
		t.Error("no function evaluations reported")
	}
}

// TestOptimizeStream reads the chunked NDJSON: at least one trace line,
// then exactly one terminal outcome line.
func TestOptimizeStream(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/optimize", OptimizeRequest{Stream: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var traces, outcomes int
	var final StreamLine
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Trace != nil:
			traces++
			if outcomes != 0 {
				t.Error("trace line after the terminal line")
			}
		case line.Outcome != nil:
			outcomes++
			final = line
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if traces == 0 {
		t.Error("stream carried no trace records")
	}
	if outcomes != 1 {
		t.Fatalf("stream carried %d outcome lines, want 1", outcomes)
	}
	if !final.Outcome.Feasible {
		t.Errorf("streamed optimize infeasible: %+v", final.Outcome)
	}
}

// TestSweep samples a small grid twice; the repeat must be served
// entirely from the cache.
func TestSweep(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	req := SweepRequest{NOmega: 4, NI: 4}
	rec := post(t, h, "/v1/sweep", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[SweepResponse](t, rec)
	if len(resp.Points) != 16 {
		t.Fatalf("%d points, want 16", len(resp.Points))
	}
	sawLive := false
	for _, p := range resp.Points {
		if !p.Runaway {
			sawLive = true
			if p.MaxTempC <= 0 {
				t.Errorf("live point (%g RPM, %g A) with MaxTempC %g", p.OmegaRPM, p.ITecA, p.MaxTempC)
			}
		}
	}
	if !sawLive {
		t.Error("every grid point claims runaway")
	}

	before := s.cache.Stats()
	if rec := post(t, h, "/v1/sweep", req); rec.Code != http.StatusOK {
		t.Fatalf("repeat status %d", rec.Code)
	}
	after := s.cache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("repeat sweep re-solved: misses %d → %d", before.Misses, after.Misses)
	}

	if rec := post(t, h, "/v1/sweep", SweepRequest{NOmega: 100, NI: 100}); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized grid answered %d, want 400", rec.Code)
	}
}

// TestPareto traces a two-threshold front end to end.
func TestPareto(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/pareto", ParetoRequest{TMaxC: []float64{90, 80}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[ParetoResponse](t, rec)
	if len(resp.Points) != 2 {
		t.Fatalf("%d points, want 2", len(resp.Points))
	}
	if resp.Points[0].TMaxC < resp.Points[1].TMaxC {
		t.Error("front not in descending threshold order")
	}
	if p := resp.Points[0]; !p.Feasible {
		t.Errorf("90 °C threshold infeasible at service resolution: %+v", p)
	}
	if resp.Points[0].Feasible && resp.Points[1].Feasible &&
		resp.Points[1].PowerW < resp.Points[0].PowerW-1e-6 {
		t.Errorf("tighter threshold cheaper: %g W under 80 °C vs %g W under 90 °C",
			resp.Points[1].PowerW, resp.Points[0].PowerW)
	}
}

// TestBadRequests pins the 400 surface.
func TestBadRequests(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	cases := []struct {
		name string
		path string
		body any
	}{
		{"unknown bench", "/v1/evaluate", EvaluateRequest{Chip: ChipSpec{Bench: "NoSuch"}}},
		{"negative omega", "/v1/evaluate", EvaluateRequest{OmegaRPM: -1}},
		{"over-max omega", "/v1/evaluate", EvaluateRequest{OmegaRPM: 1e9}},
		{"currents without zoning", "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000, CurrentsA: []float64{1, 2}}},
		{"current count mismatch", "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000, CurrentsA: []float64{1}, Zoning: &ZoneSpec{Zones: 3}}},
		{"too many zones", "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000, CurrentsA: make([]float64, 99), Zoning: &ZoneSpec{Zones: 99}}},
		{"empty zoning", "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000, CurrentsA: []float64{1}, Zoning: &ZoneSpec{}}},
		{"unknown mode", "/v1/optimize", OptimizeRequest{Mode: "nope"}},
		{"unknown method", "/v1/optimize", OptimizeRequest{Method: "nope"}},
		{"multistart over 8 zones", "/v1/optimize", OptimizeRequest{Chip: ChipSpec{Bench: "CRC32", Res: 16}, Zoning: &ZoneSpec{Zones: 8}, MultiStart: true}},
		{"streamed multistart over 8 zones", "/v1/optimize", OptimizeRequest{Chip: ChipSpec{Bench: "CRC32", Res: 16}, Zoning: &ZoneSpec{Zones: 8}, MultiStart: true, Stream: true}},
		{"unknown pareto method", "/v1/pareto", ParetoRequest{TMaxC: []float64{90}, Method: "nope"}},
		{"removed method neldermead", "/v1/optimize", OptimizeRequest{Method: "neldermead"}},
		{"removed method hooke", "/v1/optimize", OptimizeRequest{Method: "hooke"}},
		{"removed pareto method neldermead", "/v1/pareto", ParetoRequest{TMaxC: []float64{90}, Method: "neldermead"}},
		{"removed pareto method hooke", "/v1/pareto", ParetoRequest{TMaxC: []float64{90}, Method: "hooke"}},
		{"tiny grid", "/v1/sweep", SweepRequest{NOmega: 1, NI: 1}},
		{"empty pareto", "/v1/pareto", ParetoRequest{}},
		{"unknown field", "/v1/evaluate", map[string]any{"omega_rpm": 2000, "bogus": true}},
		{"removed field warmstart", "/v1/optimize", map[string]any{"warmstart": true}},
		{"evaluate res over cap", "/v1/evaluate", EvaluateRequest{Chip: ChipSpec{Res: 129}, OmegaRPM: 2000}},
		{"evaluate res far over cap", "/v1/evaluate", EvaluateRequest{Chip: ChipSpec{Res: 1000000}, OmegaRPM: 2000}},
		{"optimize res over cap", "/v1/optimize", OptimizeRequest{Chip: ChipSpec{Res: 129}}},
		{"optimize res far over cap", "/v1/optimize", OptimizeRequest{Chip: ChipSpec{Res: 1000000}}},
	}
	// An unknown name is answered with the accepted ones, and a corner
	// launch past the multistart bound names the bound.
	lists := map[string]string{
		"unknown mode":                     "oftec, var, fixed, teconly",
		"unknown method":                   "(want sqp, interior, trust)",
		"unknown pareto method":            "(want sqp, interior, trust)",
		"removed method neldermead":        "(want sqp, interior, trust)",
		"removed method hooke":             "(want sqp, interior, trust)",
		"removed pareto method neldermead": "(want sqp, interior, trust)",
		"removed pareto method hooke":      "(want sqp, interior, trust)",
		"multistart over 8 zones":          "CornerStarts limited to 8 dimensions",
		"streamed multistart over 8 zones": "CornerStarts limited to 8 dimensions",
		"removed field warmstart":          `unknown field "warmstart"`,
		"evaluate res over cap":            "chip grid resolution 129 exceeds the cap of 128",
		"evaluate res far over cap":        "chip grid resolution 1000000 exceeds the cap of 128",
		"optimize res over cap":            "chip grid resolution 129 exceeds the cap of 128",
		"optimize res far over cap":        "chip grid resolution 1000000 exceeds the cap of 128",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.path, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", rec.Code, rec.Body.String())
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Errorf("400 without an error body: %q", rec.Body.String())
			}
			if !strings.Contains(eb.Error, lists[tc.name]) {
				t.Errorf("error %q does not list %q", eb.Error, lists[tc.name])
			}
		})
	}
}

// TestPoolFull caps the model pool and checks the 503 path.
func TestPoolFull(t *testing.T) {
	s := New(Options{MaxModels: 1})
	h := s.Handler()

	if rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000}); rec.Code != http.StatusOK {
		t.Fatalf("first chip: status %d", rec.Code)
	}
	rec := post(t, h, "/v1/evaluate", EvaluateRequest{Chip: ChipSpec{Bench: "FFT"}, OmegaRPM: 2000})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second chip on a full pool answered %d, want 503", rec.Code)
	}
}

// TestClusterZoning drives the canonical 3-zone layout through the API
// and checks the k=3 point agrees with a direct zoned evaluation.
func TestClusterZoning(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	req := EvaluateRequest{
		OmegaRPM:  4000,
		CurrentsA: []float64{1, 1.5, 2},
		Zoning:    &ZoneSpec{Clusters: true},
	}
	rec := post(t, h, "/v1/evaluate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decodeBody[EvaluateResponse](t, rec)
	if got.Runaway {
		t.Fatal("unexpected runaway")
	}
	if got.MaxTempC <= 0 {
		t.Errorf("MaxTempC = %g", got.MaxTempC)
	}
	// Repeat with a permuted spelling of the same explicit assignment:
	// the zoning memoization must treat it as the same zoning.
	before := s.cache.Stats()
	if rec := post(t, h, "/v1/evaluate", req); rec.Code != http.StatusOK {
		t.Fatalf("repeat status %d", rec.Code)
	}
	after := s.cache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("repeat cluster request re-solved: misses %d → %d", before.Misses, after.Misses)
	}
}

// TestStatsShape pins the /statz counters after one evaluate; /statz is
// the only stats endpoint.
func TestStatsShape(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 2000, ITecA: 1})
	if rec := get(t, h, "/stats"); rec.Code != http.StatusNotFound {
		t.Errorf("/stats answered %d, want 404", rec.Code)
	}
	stats := decodeBody[StatzResponse](t, get(t, h, "/statz"))
	if stats.Pool.Models != 1 || stats.Pool.Builds != 1 {
		t.Errorf("pool stats %+v, want 1 model / 1 build", stats.Pool)
	}
	if stats.Req.Total != 1 || stats.Req.Evaluate != 1 {
		t.Errorf("request stats %+v", stats.Req)
	}
	if stats.Cache.Misses == 0 {
		t.Errorf("cache stats %+v, want at least one miss", stats.Cache)
	}
	if stats.Cache.Capacity <= 0 {
		t.Errorf("cache capacity %d", stats.Cache.Capacity)
	}
	if stats.Req.InFlight != 0 {
		t.Errorf("in-flight %d at rest", stats.Req.InFlight)
	}
}

// TestDistinctChipsDistinctModels checks the pool keys on the full
// config: two specs differing only in ambient get separate models, and
// their coincident operating points do not alias in the shared cache.
func TestDistinctChipsDistinctModels(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	a := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 3000, ITecA: 1})
	b := post(t, h, "/v1/evaluate", EvaluateRequest{Chip: ChipSpec{AmbientC: 35}, OmegaRPM: 3000, ITecA: 1})
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d", a.Code, b.Code)
	}
	if s.pool.size() != 2 {
		t.Fatalf("pool holds %d entries, want 2", s.pool.size())
	}
	ra := decodeBody[EvaluateResponse](t, a)
	rb := decodeBody[EvaluateResponse](t, b)
	if ra.MaxTempC <= rb.MaxTempC {
		t.Errorf("45 °C ambient (%g °C) not hotter than 35 °C ambient (%g °C) — cache aliasing?",
			ra.MaxTempC, rb.MaxTempC)
	}
	if diff := ra.MaxTempC - rb.MaxTempC; math.Abs(diff-10) > 2 {
		t.Logf("ambient delta maps to %.2f °C chip delta", diff)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	rec := get(t, h, "/v1/evaluate")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate answered %d, want 405", rec.Code)
	}
}
