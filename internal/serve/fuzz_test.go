package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"testing"

	"oftec/internal/core"
	"oftec/internal/floorplan"
	"oftec/internal/thermal"
)

// FuzzChipSpecConfig strict-decodes arbitrary bytes into a ChipSpec, as
// every oftecd request decoder does for its chip field, and materializes
// the configuration. A spec may fail; it must not panic, and a
// configuration it yields must pass Validate, keep every grid resolution
// within thermal.MaxRes, and carry a finite threshold and ambient. The
// spec also resolves twice through one fresh model pool, once through the
// canonical key and once through the spec index: both must give the same
// entry, or the same error, and a failed spec must leave the pool and its
// index empty. A negative res never resolves.
func FuzzChipSpecConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"paper_res":true,"res":16}`,
		`{"res":100000}`,
		`{"res":-5}`,
		`{"tmax_c":1e308}`,
		`{"coolant":"liquid"}`,
		`{"bench":"NoSuch"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var spec ChipSpec
		if err := dec.Decode(&spec); err != nil {
			return
		}
		p := newPool(0)
		e1, err1 := p.lookup(spec)
		e2, err2 := p.lookup(spec)
		switch {
		case err1 != nil || err2 != nil:
			if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("%+v: resolved to (%p, %v), then (%p, %v)", spec, e1, err1, e2, err2)
			}
			if size, idx := p.size(), p.indexed(); size != 0 || idx != 0 {
				t.Fatalf("%+v: failed spec left %d entries and %d indexed specs", spec, size, idx)
			}
		case e1 != e2:
			t.Fatalf("%+v: resolved to entry %p, then %p", spec, e1, e2)
		case spec.Res < 0:
			t.Fatalf("%+v: negative res resolved", spec)
		}
		cfg, err := spec.config()
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: materialized configuration fails Validate: %v", spec, err)
		}
		for _, res := range []int{cfg.ChipRes, cfg.SpreaderRes, cfg.SinkRes, cfg.PCBRes} {
			if res > thermal.MaxRes {
				t.Fatalf("%+v: grid resolution %d over the cap %d", spec, res, thermal.MaxRes)
			}
		}
		for _, v := range []float64{cfg.TMax, cfg.Ambient} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%+v: non-finite threshold %g or ambient %g", spec, cfg.TMax, cfg.Ambient)
			}
		}
	})
}

// FuzzEvaluateRequest strict-decodes arbitrary bytes into an
// EvaluateRequest and posts it to /v1/evaluate on one shared Server. The
// chip is pinned to the default spec, which keeps the pool at one model
// (FuzzChipSpecConfig covers chips), and the deadline to the default,
// since a short timeout_ms may rightly answer 504. Whatever the point,
// currents and zoning, the answer is 200 or 400: never a panic, a
// runaway allocation or a 500.
func FuzzEvaluateRequest(f *testing.F) {
	clusters, n := core.ClusterZones()
	huge := maps.Clone(clusters)
	huge[floorplan.UnitL2] = 1 << 20
	for _, seed := range []EvaluateRequest{
		{OmegaRPM: 3000, ITecA: 1},
		{OmegaRPM: 3000, CurrentsA: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}, Zoning: &ZoneSpec{Zones: 9}},
		{OmegaRPM: 3000, CurrentsA: []float64{1, 1.5, 2}, Zoning: &ZoneSpec{Clusters: true}},
		{OmegaRPM: 3000, CurrentsA: make([]float64, n), Zoning: &ZoneSpec{ZoneOf: clusters}},
		{OmegaRPM: 2000, ITecA: -1},
		{OmegaRPM: 2000, CurrentsA: []float64{1, 1}, Zoning: &ZoneSpec{ZoneOf: huge}},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	h := New(Options{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req EvaluateRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		req.Chip, req.TimeoutMS = ChipSpec{}, 0
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > maxBodyBytes {
			return // the 413 path has its own test
		}
		rec := post(t, h, "/v1/evaluate", json.RawMessage(b))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", b, rec.Code, rec.Body.String())
		}
	})
}

// FuzzOptimizeRequest strict-decodes arbitrary bytes into an
// OptimizeRequest and posts it to /v1/optimize on one shared Server, with
// the chip and the deadline pinned to the defaults as in
// FuzzEvaluateRequest. A multistart over a zoning is skipped, since it
// launches one Algorithm-1 run per corner of a box with one edge per
// zone. Whatever the mode, method, zoning and flags, the answer is 200
// or 400; a 200 body decodes to an outcome of finite numbers, streamed
// or not, and a stream ends on an outcome, not an error.
func FuzzOptimizeRequest(f *testing.F) {
	for _, seed := range []OptimizeRequest{
		{},
		{Mode: "var", Method: "interior"},
		{Mode: "teconly", Method: "trust", Fallback: true},
		{Mode: "fixed", Opt2Only: true},
		{MultiStart: true, Stream: true},
		{Zoning: &ZoneSpec{Clusters: true}},
		{Zoning: &ZoneSpec{Zones: 3}, Stream: true},
		{Mode: "nope"},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	h := New(Options{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req OptimizeRequest
		if err := dec.Decode(&req); err != nil || (req.MultiStart && req.Zoning != nil) {
			return
		}
		req.Chip, req.TimeoutMS = ChipSpec{}, 0
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > maxBodyBytes {
			return // the 413 path has its own test
		}
		rec := post(t, h, "/v1/optimize", json.RawMessage(b))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("%s: status %d: %s", b, rec.Code, rec.Body.String())
		}
		out := new(OptimizeResponse)
		if req.Stream {
			var last StreamLine
			lines := json.NewDecoder(rec.Body)
			for lines.More() {
				last = StreamLine{}
				if err := lines.Decode(&last); err != nil {
					t.Fatalf("%s: stream line does not decode: %v", b, err)
				}
			}
			if last.Outcome == nil {
				t.Fatalf("%s: stream ends without an outcome: %+v", b, last)
			}
			out = last.Outcome
		} else if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: 200 body does not decode: %v: %q", b, err, rec.Body.String())
		}
		for _, v := range append([]float64{out.OmegaRPM, out.ITecA, out.MaxTempC, out.CoolingW, out.MinMaxTempC}, out.CurrentsA...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite number in %+v", b, out)
			}
		}
	})
}

// FuzzParetoRequest strict-decodes arbitrary bytes into a ParetoRequest
// and posts it to /v1/pareto on one shared Server, with the chip and the
// deadline pinned to the defaults as in FuzzEvaluateRequest. A request
// with more than eight thresholds is skipped, since each threshold is an
// Algorithm-1 run. Whatever the thresholds and method, the answer is 200
// or 400, and a 200 body decodes to a front of finite numbers.
func FuzzParetoRequest(f *testing.F) {
	for _, seed := range []ParetoRequest{
		{TMaxC: []float64{90}},
		{TMaxC: []float64{95, 85, 75}, Method: "interior"},
		{TMaxC: []float64{40}},
		{TMaxC: []float64{90, 45}},
		{TMaxC: []float64{-300}},
		{TMaxC: []float64{1e308}, Method: "trust"},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	h := New(Options{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req ParetoRequest
		if err := dec.Decode(&req); err != nil || len(req.TMaxC) > 8 {
			return
		}
		req.Chip, req.TimeoutMS = ChipSpec{}, 0
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > maxBodyBytes {
			return // the 413 path has its own test
		}
		rec := post(t, h, "/v1/pareto", json.RawMessage(b))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("%s: status %d: %s", b, rec.Code, rec.Body.String())
		}
		var resp ParetoResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: 200 body does not decode: %v: %q", b, err, rec.Body.String())
		}
		for _, p := range resp.Points {
			for _, v := range []float64{p.TMaxC, p.PowerW, p.MaxTempC, p.OmegaRPM, p.ITecA} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite number in %+v", b, p)
				}
			}
		}
	})
}

// FuzzSweepRequest strict-decodes arbitrary bytes into a SweepRequest and
// posts it to /v1/sweep on one shared Server, with the chip and the
// deadline pinned to the defaults as in FuzzEvaluateRequest. A grid of
// more than 64 points is skipped, since each point is a steady-state
// solve. Whatever the grid, the answer is 200 or 400, and a 200 body
// decodes to n_omega·n_i points of finite numbers.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []SweepRequest{
		{NOmega: 3, NI: 3},
		{NOmega: 8, NI: 8},
		{NOmega: 2, NI: 32},
		{NOmega: 1, NI: 1},
		{NOmega: -3, NI: 5},
		{NOmega: 1<<62 + 1, NI: 4},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	h := New(Options{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req SweepRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		// Over 64 points, computed without overflow: for positive edges,
		// n_omega·n_i > 64 exactly when n_omega > ⌊64/n_i⌋.
		if req.NOmega > 0 && req.NI > 0 && req.NOmega > 64/req.NI {
			return
		}
		req.Chip, req.TimeoutMS = ChipSpec{}, 0
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := post(t, h, "/v1/sweep", json.RawMessage(b))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("%s: status %d: %s", b, rec.Code, rec.Body.String())
		}
		var resp SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: 200 body does not decode: %v: %q", b, err, rec.Body.String())
		}
		if len(resp.Points) != req.NOmega*req.NI {
			t.Fatalf("%s: %d points for a %d×%d grid", b, len(resp.Points), req.NOmega, req.NI)
		}
		for _, p := range resp.Points {
			for _, v := range []float64{p.OmegaRPM, p.ITecA, p.MaxTempC, p.PowerW} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite number in %+v", b, p)
				}
			}
		}
	})
}
