package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"oftec/internal/thermal"
)

// FuzzChipSpecConfig strict-decodes arbitrary bytes into a ChipSpec, as
// every oftecd request decoder does for its chip field, and materializes
// the configuration. A spec may fail; it must not panic, and a
// configuration it yields must pass Validate, keep every grid resolution
// within thermal.MaxRes, and carry a finite threshold and ambient.
func FuzzChipSpecConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"paper_res":true,"res":16}`,
		`{"res":100000}`,
		`{"tmax_c":1e308}`,
		`{"coolant":"liquid"}`,
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
