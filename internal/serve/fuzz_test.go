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
// index empty.
func FuzzChipSpecConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"paper_res":true,"res":16}`,
		`{"res":100000}`,
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
