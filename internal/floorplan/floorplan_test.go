package floorplan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectAreaAndContains(t *testing.T) {
	r := Rect{X: 1, Y: 2, W: 3, H: 4}
	if r.Area() != 12 {
		t.Errorf("Area = %g, want 12", r.Area())
	}
	if !r.Contains(1, 2) {
		t.Error("lower-left corner should be inside (half-open)")
	}
	if r.Contains(4, 6) {
		t.Error("upper-right corner should be outside (half-open)")
	}
	if !r.Contains(2.5, 4) {
		t.Error("interior point should be inside")
	}
}

func TestRectOverlap(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 2, H: 2}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{X: 1, Y: 1, W: 2, H: 2}, 1},
		{Rect{X: 2, Y: 0, W: 1, H: 1}, 0},   // edge-adjacent
		{Rect{X: 5, Y: 5, W: 1, H: 1}, 0},   // disjoint
		{Rect{X: 0, Y: 0, W: 2, H: 2}, 4},   // identical
		{Rect{X: -1, Y: -1, W: 4, H: 4}, 4}, // containing
	}
	for _, tc := range cases {
		if got := a.Overlap(tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Overlap(%+v) = %g, want %g", tc.b, got, tc.want)
		}
	}
}

func TestOverlapSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Rect {
			return Rect{X: rng.Float64() * 10, Y: rng.Float64() * 10, W: rng.Float64()*5 + 0.01, H: rng.Float64()*5 + 0.01}
		}
		a, b := mk(), mk()
		ov1, ov2 := a.Overlap(b), b.Overlap(a)
		if math.Abs(ov1-ov2) > 1e-12 {
			return false
		}
		// Overlap is bounded by both areas.
		return ov1 <= a.Area()+1e-12 && ov1 <= b.Area()+1e-12 && ov1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddUnitValidation(t *testing.T) {
	f, err := New(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddUnit("a", Rect{X: 0, Y: 0, W: 5, H: 5}); err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := f.AddUnit("a", Rect{X: 5, Y: 5, W: 1, H: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := f.AddUnit("", Rect{X: 5, Y: 5, W: 1, H: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if err := f.AddUnit("big", Rect{X: 8, Y: 8, W: 5, H: 5}); err == nil {
		t.Error("out-of-die unit accepted")
	}
	if err := f.AddUnit("flat", Rect{X: 1, Y: 1, W: 0, H: 1}); err == nil {
		t.Error("zero-width unit accepted")
	}
	if _, err := New(0, 5); err == nil {
		t.Error("zero-width die accepted")
	}
}

func TestUnitLookup(t *testing.T) {
	f, _ := New(10, 10)
	if err := f.AddUnit("alu", Rect{X: 0, Y: 0, W: 4, H: 10}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddUnit("cache", Rect{X: 4, Y: 0, W: 6, H: 10}); err != nil {
		t.Fatal(err)
	}
	if u, ok := f.Unit("alu"); !ok || u.Name != "alu" {
		t.Errorf("Unit(alu) = %+v, %v", u, ok)
	}
	if _, ok := f.Unit("nonesuch"); ok {
		t.Error("Unit(nonesuch) reported present")
	}
	if u, ok := f.UnitAt(5, 5); !ok || u.Name != "cache" {
		t.Errorf("UnitAt(5,5) = %+v, %v, want cache", u, ok)
	}
	if _, ok := f.UnitAt(50, 50); ok {
		t.Error("UnitAt outside die reported covered")
	}
	if got := f.CoverageRatio(); math.Abs(got-1) > 1e-12 {
		t.Errorf("CoverageRatio = %g, want 1", got)
	}
	if err := f.Validate(1e-9); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateDetectsOverlapAndGaps(t *testing.T) {
	f, _ := New(10, 10)
	if err := f.AddUnit("a", Rect{X: 0, Y: 0, W: 6, H: 10}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddUnit("b", Rect{X: 5, Y: 0, W: 5, H: 10}); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(1e-9); err == nil {
		t.Error("overlapping units passed validation")
	}

	g, _ := New(10, 10)
	if err := g.AddUnit("half", Rect{X: 0, Y: 0, W: 5, H: 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(1e-9); err == nil {
		t.Error("incomplete coverage passed validation")
	}
}

// TestValidateRejectsNonFinite: AddUnit's range checks and the overlap
// and coverage comparisons all pass NaN, so Validate checks finiteness
// first.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name   string
		second Rect
	}{
		{"NaN x", Rect{X: nan, Y: 0, W: 5, H: 10}},
		{"NaN y", Rect{X: 5, Y: nan, W: 5, H: 10}},
		{"NaN width", Rect{X: 5, Y: 0, W: nan, H: 10}},
		{"NaN height", Rect{X: 5, Y: 0, W: 5, H: nan}},
	} {
		f, err := New(10, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddUnit("a", Rect{X: 0, Y: 0, W: 5, H: 10}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddUnit("b", tc.second); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := f.Validate(1e-9); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func TestAlphaEV6(t *testing.T) {
	f := AlphaEV6()
	if f.Width != EV6DieSize || f.Height != EV6DieSize {
		t.Errorf("die size %g×%g, want %g", f.Width, f.Height, EV6DieSize)
	}
	if n := f.NumUnits(); n != 18 {
		t.Errorf("unit count = %d, want 18", n)
	}
	if err := f.Validate(1e-9); err != nil {
		t.Fatalf("EV6 floorplan invalid: %v", err)
	}
	// All named units referenced elsewhere must exist.
	for _, name := range []string{
		UnitL2Left, UnitL2, UnitL2Right, UnitIcache, UnitITB, UnitDTB,
		UnitLdStQ, UnitDcache, UnitFPAdd, UnitFPMul, UnitFPReg, UnitFPMap,
		UnitFPQ, UnitIntMap, UnitIntQ, UnitIntReg, UnitIntExec, UnitBpred,
	} {
		if _, ok := f.Unit(name); !ok {
			t.Errorf("EV6 floorplan missing unit %q", name)
		}
	}
	for _, name := range CacheUnits {
		if _, ok := f.Unit(name); !ok {
			t.Errorf("cache unit %q not in floorplan", name)
		}
	}
	// The integer execution units (classic EV6 hot spots) must be present
	// in the top band, away from the caches.
	ie, _ := f.Unit(UnitIntExec)
	ic, _ := f.Unit(UnitIcache)
	if ie.Rect.Overlap(ic.Rect) > 0 {
		t.Error("IntExec overlaps Icache")
	}
	if n := f.NumUnits(); n != 18 {
		t.Errorf("NumUnits() = %d, want 18", n)
	}
	if s := f.String(); s == "" {
		t.Error("String() is empty")
	}
}
