package thermal

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"oftec/internal/coolant"
	"oftec/internal/floorplan"
	"oftec/internal/power"
)

// resetNetworks empties the process-wide network cache, so a test sees
// its own misses.
func resetNetworks() {
	networks.Lock()
	networks.m = make(map[string]*network)
	networks.Unlock()
}

// freshModel builds a model on a network of its own, bypassing the cache.
func freshModel(t *testing.T, cfg Config, dyn power.Map) *Model {
	t.Helper()
	net, err := newNetwork(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newModel(net, cfg, dyn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cloneConfig deep-copies a configuration through its JSON form.
func cloneConfig(t *testing.T, cfg Config) Config {
	t.Helper()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out Config
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// numericLeaves calls visit on every exported int or float leaf under v
// (map values included, in key order), with a setter for it.
func numericLeaves(v reflect.Value, path string, visit func(path string, v reflect.Value, set func(reflect.Value))) {
	switch v.Kind() {
	case reflect.Int, reflect.Float64:
		visit(path, v, v.Set)
	case reflect.Pointer:
		if !v.IsNil() {
			numericLeaves(v.Elem(), path, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				numericLeaves(v.Field(i), path+"."+f.Name, visit)
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			visit(fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k), func(nv reflect.Value) { v.SetMapIndex(k, nv) })
		}
	}
}

// leafConfig is a valid configuration that reaches every kind of numeric
// leaf: a liquid coolant with its loop, PUE and chip count spelled out,
// and leakage multipliers.
func leafConfig() Config {
	cfg := testConfig()
	loop := coolant.PaperLoop()
	cfg.Coolant = &coolant.Spec{Kind: coolant.KindLiquid, Liquid: &loop, PUE: 1.2, Chips: 2}
	cfg.Leakage.UnitMultipliers = map[string]float64{"L2": 1.5, "Icache": 0.8}
	cfg.RunawayTemp = 480
	return cfg
}

// withUnitRect copies fp with unit i's rectangle changed by edit.
func withUnitRect(t *testing.T, fp *floorplan.Floorplan, i int, edit func(*floorplan.Rect)) *floorplan.Floorplan {
	t.Helper()
	out, err := floorplan.New(fp.Width, fp.Height)
	if err != nil {
		t.Fatal(err)
	}
	for j, u := range fp.Units() {
		if j == i {
			edit(&u.Rect)
		}
		if err := out.AddUnit(u.Name, u.Rect); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestConfigValidationRejectsNonFinite pins that Validate fails closed on
// NaN and ±Inf: each named case, then every float leaf of a configuration
// set to NaN, +Inf and −Inf in turn, is rejected by the finiteness check
// itself, not by whichever range guard a value happens to trip.
func TestConfigValidationRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"NaN ambient", func(c *Config) { c.Ambient = nan }},
		{"+Inf TMax", func(c *Config) { c.TMax = inf }},
		{"NaN chip thickness", func(c *Config) { c.Chip.Thickness = nan }},
		{"NaN areal Seebeck", func(c *Config) { c.TEC.SeebeckPerArea = nan }},
		{"NaN leakage beta", func(c *Config) { c.Leakage.Beta = nan }},
		{"NaN PCB-to-ambient", func(c *Config) { c.PCBToAmbient = nan }},
		{"-Inf runaway temperature", func(c *Config) { c.RunawayTemp = -inf }},
		{"+Inf spreader conductivity", func(c *Config) { c.Spreader.Material.Conductivity = inf }},
		{"NaN fan constant", func(c *Config) { c.Fan.C = nan }},
		{"NaN heat-sink offset", func(c *Config) { c.HeatSink.R = nan }},
		{"NaN loop UA", func(c *Config) { c.Coolant.Liquid.UA = nan }},
		{"+Inf PUE", func(c *Config) { c.Coolant.PUE = inf }},
		{"NaN unit multiplier", func(c *Config) { c.Leakage.UnitMultipliers["L2"] = nan }},
		{"+Inf die width", func(c *Config) {
			fp, err := floorplan.New(inf, c.Floorplan.Height)
			if err != nil {
				t.Fatal(err)
			}
			c.Floorplan = fp
		}},
		{"NaN unit width", func(c *Config) {
			c.Floorplan = withUnitRect(t, c.Floorplan, 0, func(r *floorplan.Rect) { r.W = nan })
		}},
		{"NaN unit corner", func(c *Config) {
			c.Floorplan = withUnitRect(t, c.Floorplan, 5, func(r *floorplan.Rect) { r.X = nan })
		}},
	}
	base := leafConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("base configuration invalid: %v", err)
	}
	for _, tc := range cases {
		cfg := cloneConfig(t, leafConfig())
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("%s: Validate = %v, want a finiteness error", tc.name, err)
		}
	}

	floats := 0
	numericLeaves(reflect.ValueOf(&base).Elem(), "config", func(path string, v reflect.Value, _ func(reflect.Value)) {
		if v.Kind() != reflect.Float64 {
			return
		}
		floats++
		for _, bad := range []float64{nan, inf, -inf} {
			cfg := cloneConfig(t, base)
			numericLeaves(reflect.ValueOf(&cfg).Elem(), "config", func(p string, v reflect.Value, set func(reflect.Value)) {
				if p == path {
					set(reflect.ValueOf(bad))
				}
			})
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), path+" must be finite") {
				t.Errorf("%s = %g: Validate = %v", path, bad, err)
			}
		}
	})
	if floats < 50 {
		t.Errorf("walked %d float leaves; the configuration has more", floats)
	}
}

// TestNetworkKeyCompleteness pins that the network key moves with every
// input of the network build: perturbing any exported numeric leaf of the
// configuration by one ulp (or one, for an int), or any coordinate of a
// floorplan unit's rectangle, yields a key distinct from the base and from
// every other perturbation. The same JSON is the serve pool's and the ROM
// file's identity, so this guards those too.
func TestNetworkKeyCompleteness(t *testing.T) {
	base := leafConfig()
	baseKey, err := networkKey(&base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{baseKey: "base"}
	distinct := func(label string, cfg *Config) {
		key, err := networkKey(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s keys the same as %s", label, prev)
		}
		seen[key] = label
	}

	leaves := 0
	numericLeaves(reflect.ValueOf(&base).Elem(), "config", func(path string, _ reflect.Value, _ func(reflect.Value)) {
		leaves++
		cfg := cloneConfig(t, base)
		numericLeaves(reflect.ValueOf(&cfg).Elem(), "config", func(p string, v reflect.Value, set func(reflect.Value)) {
			if p != path {
				return
			}
			if v.Kind() == reflect.Int {
				set(reflect.ValueOf(int(v.Int()) + 1))
			} else {
				set(reflect.ValueOf(math.Nextafter(v.Float(), math.Inf(1))))
			}
		})
		distinct(path, &cfg)
	})
	if leaves < 60 {
		t.Errorf("walked %d numeric leaves; the configuration has more", leaves)
	}

	for i, edit := range []func(*floorplan.Rect){
		func(r *floorplan.Rect) { r.X = math.Nextafter(r.X, 1) },
		func(r *floorplan.Rect) { r.Y = math.Nextafter(r.Y, 1) },
		func(r *floorplan.Rect) { r.W = math.Nextafter(r.W, 0) },
		func(r *floorplan.Rect) { r.H = math.Nextafter(r.H, 0) },
	} {
		cfg := cloneConfig(t, base)
		cfg.Floorplan = withUnitRect(t, cfg.Floorplan, 3, edit)
		distinct(fmt.Sprintf("unit 3 rectangle coordinate %d", i), &cfg)
	}
}

// TestSharedNetworkMatchesFresh pins the sharing contract: a model on a
// shared network — one whose scratch pool another model has already
// dirtied under a different power map — answers reflect.DeepEqual to a
// model on a network built for it alone, through EvaluateWarm,
// EvaluateExact, EvaluateGrad and EvaluateBatch, for k ∈ {1, 3, 9}.
func TestSharedNetworkMatchesFresh(t *testing.T) {
	cfg := testConfig()
	pm := benchMap(t, cfg, "Basicmath")
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{1, 3, 9} {
		pts := randomPoints(rng, cfg, k, 8)
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			other := benchModel(t, cfg, "Quicksort")
			if _, err := other.EvaluateBatch(context.Background(), testZoning(t, other, k), pts, nil); err != nil {
				t.Fatal(err)
			}
			shared := benchModel(t, cfg, "Basicmath")
			fresh := freshModel(t, cfg, pm)
			if shared.network != other.network || fresh.network == shared.network {
				t.Fatal("models are not on the networks the test means")
			}
			answers := func(m *Model) []any {
				z := testZoning(t, m, k)
				var out []any
				batch, err := m.EvaluateBatch(context.Background(), z, pts, nil)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, batch)
				for _, p := range pts {
					res, err := m.EvaluateWarm(z, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					exact, err := m.EvaluateExact(p.Omega, p.Currents[0])
					if err != nil {
						t.Fatal(err)
					}
					g, gerr := m.EvaluateGrad(z, p)
					out = append(out, res, exact, g, gerr != nil)
				}
				return out
			}
			got, want := answers(shared), answers(fresh)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("answer %d: shared network differs from a fresh one", i)
				}
			}
		})
	}
}

// TestSharedNetworkIsolation pins what stays per model: SetDynamicPower on
// one model moves none of another's answers on the same network, and the
// result memo and preconditioner cache of one model never serve another.
func TestSharedNetworkIsolation(t *testing.T) {
	cfg := testConfig()
	pts := randomPoints(rand.New(rand.NewSource(43)), cfg, 1, 6)
	solve := func(m *Model) []*Result {
		out := make([]*Result, len(pts))
		for i, p := range pts {
			res, err := m.EvaluateWarm(nil, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}
	want := solve(freshModel(t, cfg, benchMap(t, cfg, "CRC32")))
	emptyCaches := func(label string, m *Model) {
		m.resMu.Lock()
		memo := len(m.resMem)
		m.resMu.Unlock()
		m.pcMu.Lock()
		pcs := len(m.pcs)
		m.pcMu.Unlock()
		if memo != 0 || pcs != 0 {
			t.Errorf("%s: other models' solves filled this one's caches: %d memo entries, %d factorizations", label, memo, pcs)
		}
	}

	a := benchModel(t, cfg, "Basicmath")
	b := benchModel(t, cfg, "CRC32")
	if a.network != b.network {
		t.Fatal("models of one configuration are on different networks")
	}
	solve(a)
	emptyCaches("b", b)
	got := solve(b)
	assertResultsDeepEqual(t, "shared network", got, want)

	if err := a.SetDynamicPower(uniformMap(&cfg, 40)); err != nil {
		t.Fatal(err)
	}
	solve(a)
	for i, res := range solve(b) {
		if res != got[i] {
			t.Errorf("point %d: another model's SetDynamicPower flushed this one's memo", i)
		}
	}
	c := benchModel(t, cfg, "CRC32")
	emptyCaches("c", c)
	assertResultsDeepEqual(t, "after another model's SetDynamicPower", solve(c), want)
}

// TestNetworkCacheBound pins the cache's bound and hits: a configuration
// seen again is served its network, the cache never holds more than
// maxNetworks, and past the bound it clears wholesale.
func TestNetworkCacheBound(t *testing.T) {
	resetNetworks()
	t.Cleanup(resetNetworks)
	cfgs := make([]Config, maxNetworks+1)
	for i := range cfgs {
		cfgs[i] = testConfig()
		cfgs[i].Ambient += 0.125 * float64(i)
	}
	build := func(i int) *network {
		m, err := NewModel(cfgs[i], uniformMap(&cfgs[i], 20))
		if err != nil {
			t.Fatal(err)
		}
		return m.network
	}
	size := func() int {
		networks.Lock()
		defer networks.Unlock()
		return len(networks.m)
	}

	nets := make([]*network, len(cfgs))
	for i := 0; i < maxNetworks; i++ {
		nets[i] = build(i)
	}
	if n := size(); n != maxNetworks {
		t.Fatalf("cache holds %d networks after %d distinct configurations", n, maxNetworks)
	}
	for i := 0; i < maxNetworks; i++ {
		if build(i) != nets[i] {
			t.Errorf("configuration %d: a repeat was not a hit", i)
		}
	}

	nets[maxNetworks] = build(maxNetworks)
	if n := size(); n != 1 {
		t.Errorf("one configuration past the bound left %d networks, want 1 after a wholesale clear", n)
	}
	if build(maxNetworks) != nets[maxNetworks] {
		t.Error("the configuration stored after the clear was rebuilt")
	}
	if build(0) == nets[0] {
		t.Error("a network outlived the wholesale clear")
	}
}

// TestSharedNetworkConcurrent races NewModel and Evaluate across
// benchmarks and two configurations from several goroutines on an empty
// cache. Run under -race it pins that a network is read-only once
// published and its scratch pool is safe to share; every answer must
// equal the serial answer on a network of its own.
func TestSharedNetworkConcurrent(t *testing.T) {
	resetNetworks()
	t.Cleanup(resetNetworks)
	cfgs := []Config{testConfig(), liquidConfig()}
	benches := []string{"Basicmath", "Quicksort", "CRC32"}
	pts := randomPoints(rand.New(rand.NewSource(47)), cfgs[0], 1, 4)
	type job struct {
		cfg  Config
		pm   power.Map
		want []*Result
	}
	var jobs []job
	for _, cfg := range cfgs {
		for _, b := range benches {
			pm := benchMap(t, cfg, b)
			m := freshModel(t, cfg, pm)
			want := make([]*Result, len(pts))
			for i, p := range pts {
				res, err := m.EvaluateWarm(nil, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}
			jobs = append(jobs, job{cfg, pm, want})
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range jobs {
				j := jobs[(g+n)%len(jobs)]
				m, err := NewModel(j.cfg, j.pm)
				if err != nil {
					t.Error(err)
					return
				}
				for i, p := range pts {
					res, err := m.EvaluateWarm(nil, p, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(res, j.want[i]) {
						t.Errorf("goroutine %d, point %d: concurrent answer differs from the serial one", g, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWithCoolantEqualSpecReturnsReceiver pins that re-actuating a model
// with the spec it already carries returns the model itself, and that a
// different spec still rebuilds.
func TestWithCoolantEqualSpecReturnsReceiver(t *testing.T) {
	cfg := liquidConfig()
	m := benchModel(t, cfg, "Basicmath")
	same, err := m.WithCoolant(&coolant.Spec{Kind: coolant.KindLiquid})
	if err != nil {
		t.Fatal(err)
	}
	if same != m {
		t.Error("an equal liquid spec rebuilt the model")
	}
	air := benchModel(t, testConfig(), "Basicmath")
	if same, err := air.WithCoolant(nil); err != nil || same != air {
		t.Errorf("a nil spec on an air model rebuilt it (err %v)", err)
	}
	other, err := m.WithCoolant(&coolant.Spec{Kind: coolant.KindLiquid, PUE: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if other == m || other.Config().Coolant.PUE != 1.3 {
		t.Error("a different spec did not rebuild the model")
	}
}
