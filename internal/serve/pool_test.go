package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/floorplan"
)

// decodeSpec strict-decodes a chip spec, as every request decoder does.
func decodeSpec(t testing.TB, body string) ChipSpec {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var spec ChipSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return spec
}

// indexed reports the number of specs in the pool's spelling index.
func (p *pool) indexed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.specs)
}

// evaluateOn posts one scalar evaluate for the chip spelled as raw JSON.
func evaluateOn(t *testing.T, h http.Handler, chip string) *httptest.ResponseRecorder {
	t.Helper()
	return post(t, h, "/v1/evaluate", json.RawMessage(`{"chip":`+chip+`,"omega_rpm":2000,"itec_a":1}`))
}

// TestPoolSpellingsShareEntry: specs spelled differently that materialize
// one configuration share one entry and one build, through the canonical
// key on first sight and through the index after; a spec that changes
// the configuration gets an entry of its own.
func TestPoolSpellingsShareEntry(t *testing.T) {
	p := newPool(0)
	cache := evalcache.New(0)
	var first *poolEntry
	spellings := []string{`{}`, `{"res":8}`, `{"bench":"Basicmath","backend":"full","coolant":"air","res":8}`}
	for round := 0; round < 2; round++ {
		for _, body := range spellings {
			e, err := p.lookup(decodeSpec(t, body))
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if _, err := e.system(p, cache); err != nil {
				t.Fatalf("%s: build: %v", body, err)
			}
			if first == nil {
				first = e
			} else if e != first {
				t.Errorf("round %d: %s resolved to a second entry", round, body)
			}
		}
	}
	if builds := p.builds.Load(); builds != 1 {
		t.Errorf("pool built %d models for one chip, want 1", builds)
	}
	if size, idx := p.size(), p.indexed(); size != 1 || idx != len(spellings) {
		t.Errorf("pool holds %d entries and indexes %d specs, want 1 and %d", size, idx, len(spellings))
	}

	e, err := p.lookup(decodeSpec(t, `{"ambient_c":35}`))
	if err != nil {
		t.Fatal(err)
	}
	if e == first {
		t.Error(`{"ambient_c":35} shares the default chip's entry`)
	}
	if size := p.size(); size != 2 {
		t.Errorf("pool holds %d entries, want 2", size)
	}
}

// TestPoolFullServesResidentSpelling: a full pool refuses a new chip but
// still serves a new spelling of a resident one.
func TestPoolFullServesResidentSpelling(t *testing.T) {
	s := New(Options{MaxModels: 1})
	h := s.Handler()
	for _, chip := range []string{`{}`, `{"bench":"Basicmath","res":8}`, `{"backend":"full","coolant":"air"}`} {
		if rec := evaluateOn(t, h, chip); rec.Code != http.StatusOK {
			t.Errorf("%s on a full pool holding its chip: status %d: %s", chip, rec.Code, rec.Body.String())
		}
	}
	if rec := evaluateOn(t, h, `{"bench":"FFT"}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf(`{"bench":"FFT"} on a full pool answered %d, want 503`, rec.Code)
	}
	if size := s.pool.size(); size != 1 {
		t.Errorf("pool holds %d entries, want 1", size)
	}
}

// TestPoolFailedSpecNotIndexed: a spec that fails to resolve answers the
// same 400 on every repeat and leaves nothing behind in the pool or its
// index. A NaN field, which no request body can carry, fails too: NaN
// never equals itself, so an indexed NaN spec would never be found again.
func TestPoolFailedSpecNotIndexed(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	for _, spec := range []ChipSpec{{TMaxC: math.NaN()}, {AmbientC: math.NaN()}} {
		if _, err := s.pool.lookup(spec); err == nil {
			t.Errorf("%+v resolved to an entry", spec)
		}
	}
	for _, chip := range []string{`{"bench":"NoSuch"}`, `{"res":100000}`} {
		var first string
		for i := 0; i < 3; i++ {
			rec := evaluateOn(t, h, chip)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s, try %d: status %d, want 400", chip, i, rec.Code)
			}
			if i == 0 {
				first = rec.Body.String()
			} else if body := rec.Body.String(); body != first {
				t.Errorf("%s, try %d: answer %q differs from the first %q", chip, i, body, first)
			}
		}
	}
	if size, idx := s.pool.size(), s.pool.indexed(); size != 0 || idx != 0 {
		t.Errorf("failed specs left %d entries and %d indexed specs, want none", size, idx)
	}
}

// TestPoolConcurrentSpellings races first sights and index hits: 16
// goroutines resolve three spellings each of two chips, in rotated
// orders, and must agree on exactly two entries built once each.
func TestPoolConcurrentSpellings(t *testing.T) {
	chips := [][]string{
		{`{}`, `{"res":8}`, `{"bench":"Basicmath","coolant":"air"}`},
		{`{"bench":"FFT"}`, `{"bench":"FFT","backend":"full"}`, `{"bench":"FFT","res":8,"coolant":"air"}`},
	}
	var specs []ChipSpec
	for _, spellings := range chips {
		for _, body := range spellings {
			specs = append(specs, decodeSpec(t, body))
		}
	}
	p := newPool(0)
	cache := evalcache.New(0)
	const workers = 16
	got := make([][]*poolEntry, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([]*poolEntry, len(specs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range specs {
				k := (w + i) % len(specs)
				e, err := p.lookup(specs[k])
				if err == nil {
					_, err = e.system(p, cache)
				}
				if err != nil {
					errs[w] = fmt.Errorf("%+v: %w", specs[k], err)
					return
				}
				got[w][k] = e
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	per := len(chips[0])
	for w := range workers {
		for k := range specs {
			if want := got[0][k/per*per]; got[w][k] != want {
				t.Errorf("worker %d: %+v resolved to a different entry than its chip's first spelling", w, specs[k])
			}
		}
	}
	if got[0][0] == got[0][per] {
		t.Error("the two chips share one entry")
	}
	if size, builds, idx := p.size(), p.builds.Load(), p.indexed(); size != 2 || builds != 2 || idx != len(specs) {
		t.Errorf("pool holds %d entries from %d builds and indexes %d specs, want 2, 2 and %d", size, builds, idx, len(specs))
	}
}

// TestPoolIndexBounded: the spec index holds at most spellingsPerModel
// specs per model the pool admits. Sixteen spellings of one chip on a
// one-model pool overflow it twice; every spelling still finds the one
// entry, before and after the index clears.
func TestPoolIndexBounded(t *testing.T) {
	p := newPool(1)
	var first *poolEntry
	for round := 0; round < 2; round++ {
		for mask := 0; mask < 16; mask++ {
			var spec ChipSpec
			if mask&1 != 0 {
				spec.Bench = "Basicmath"
			}
			if mask&2 != 0 {
				spec.Backend = "full"
			}
			if mask&4 != 0 {
				spec.Coolant = "air"
			}
			if mask&8 != 0 {
				spec.Res = 8
			}
			e, err := p.lookup(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			if first == nil {
				first = e
			} else if e != first {
				t.Errorf("round %d: %+v resolved to a second entry", round, spec)
			}
			if idx := p.indexed(); idx > spellingsPerModel {
				t.Fatalf("round %d: index holds %d specs, over its bound %d", round, idx, spellingsPerModel)
			}
		}
	}
	if size := p.size(); size != 1 {
		t.Errorf("pool holds %d entries, want 1", size)
	}
}

// TestPoolZoningsBounded: a chip keeps at most zoningsPerChip zonings
// however many distinct zone_of maps clients send, and a spelling sent
// twice in a row still resolves to one zoning and one cache key space.
func TestPoolZoningsBounded(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	// Two zones: FPMul always in zone 1 and L2 always in zone 0 (both own
	// TEC-covered cells at the default resolution); bit k of i moves the
	// k-th other unit to zone 1.
	units := experiments.FastSetup().Config.Floorplan.Units()
	twoZones := func(i int) EvaluateRequest {
		zoneOf := map[string]int{}
		k := 0
		for _, u := range units {
			switch u.Name {
			case floorplan.UnitFPMul:
				zoneOf[u.Name] = 1
			case floorplan.UnitL2:
				zoneOf[u.Name] = 0
			default:
				zoneOf[u.Name] = i >> k & 1
				k++
			}
		}
		return EvaluateRequest{OmegaRPM: 3000, CurrentsA: []float64{1, 1}, Zoning: &ZoneSpec{ZoneOf: zoneOf}}
	}
	for i := 0; i < 3*zoningsPerChip; i++ {
		if rec := post(t, h, "/v1/evaluate", twoZones(i)); rec.Code != http.StatusOK {
			t.Fatalf("zoning %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	e, err := s.pool.lookup(ChipSpec{})
	if err != nil {
		t.Fatal(err)
	}
	e.zoneMu.Lock()
	n := len(e.zonings)
	e.zoneMu.Unlock()
	if n > zoningsPerChip {
		t.Errorf("chip keeps %d zonings, over its bound %d", n, zoningsPerChip)
	}

	before := s.Cache().Stats()
	for range 2 {
		if rec := post(t, h, "/v1/evaluate", twoZones(0)); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	after := s.Cache().Stats()
	if after.Misses-before.Misses != 1 || after.Hits-before.Hits != 1 {
		t.Errorf("a spelling sent twice: %d misses and %d hits, want 1 and 1",
			after.Misses-before.Misses, after.Hits-before.Hits)
	}
}

// TestPoolHitAllocatesNothing: once a spec has resolved, looking it up
// again is one map read under the pool lock and allocates nothing.
func TestPoolHitAllocatesNothing(t *testing.T) {
	p := newPool(0)
	for _, body := range []string{`{}`, `{"bench":"FFT","backend":"liquid","tmax_c":85}`} {
		spec := decodeSpec(t, body)
		first, err := p.lookup(spec)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var e *poolEntry
		allocs := testing.AllocsPerRun(100, func() {
			e, err = p.lookup(spec)
		})
		if err != nil || e != first {
			t.Fatalf("%s: a repeat lookup returned %p, %v; want the first entry %p", body, e, err, first)
		}
		if allocs != 0 {
			t.Errorf("%s: a lookup hit allocates %v times, want 0", body, allocs)
		}
	}
}
