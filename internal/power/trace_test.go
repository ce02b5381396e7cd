package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTraceAppendOrdering(t *testing.T) {
	var tr Trace
	if err := tr.Append(0, Map{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(1, Map{"a": 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(1, Map{"a": 3}); err == nil {
		t.Error("duplicate timestamp accepted")
	}
	if err := tr.Append(0.5, Map{"a": 3}); err == nil {
		t.Error("out-of-order timestamp accepted")
	}
	if err := tr.Append(2, nil); err == nil {
		t.Error("nil map accepted")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestTraceAppendIsolation(t *testing.T) {
	var tr Trace
	m := Map{"a": 1}
	if err := tr.Append(0, m); err != nil {
		t.Fatal(err)
	}
	m["a"] = 99 // mutate after append
	got, err := tr.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 1 {
		t.Error("trace aliases caller's map")
	}
}

func TestTraceAtZeroOrderHold(t *testing.T) {
	var tr Trace
	for i, p := range []float64{10, 20, 30} {
		if err := tr.Append(float64(i), Map{"a": p}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct{ t, want float64 }{
		{-1, 10}, // before start: first sample
		{0, 10},
		{0.5, 10},
		{1, 20},
		{1.99, 20},
		{2, 30},
		{99, 30},
	}
	for _, c := range cases {
		m, err := tr.At(c.t)
		if err != nil {
			t.Fatal(err)
		}
		if m["a"] != c.want {
			t.Errorf("At(%g) = %g, want %g", c.t, m["a"], c.want)
		}
	}
	var empty Trace
	if _, err := empty.At(0); err == nil {
		t.Error("At on empty trace accepted")
	}
}

func TestMaxAndMeanMap(t *testing.T) {
	var tr Trace
	samples := []Map{
		{"alu": 3, "cache": 1},
		{"alu": 5, "cache": 0.5},
		{"alu": 2, "cache": 2},
	}
	for i, m := range samples {
		if err := tr.Append(float64(i), m); err != nil {
			t.Fatal(err)
		}
	}
	maxm := tr.MaxMap()
	if maxm["alu"] != 5 || maxm["cache"] != 2 {
		t.Errorf("MaxMap = %v", maxm)
	}
	mean := tr.MeanMap()
	if mean["alu"] <= 2 || mean["alu"] >= 5 {
		t.Errorf("MeanMap[alu] = %g, want strictly inside (2, 5)", mean["alu"])
	}
}

func TestMeanMapEdgeCases(t *testing.T) {
	var empty Trace
	if m := empty.MeanMap(); len(m) != 0 {
		t.Errorf("MeanMap of empty trace = %v", m)
	}
	var one Trace
	if err := one.Append(0, Map{"a": 7}); err != nil {
		t.Fatal(err)
	}
	if m := one.MeanMap(); m["a"] != 7 {
		t.Errorf("single-sample mean = %v", m)
	}
}

// Property: MaxMap dominates every sample, and MeanMap never exceeds
// MaxMap.
func TestTraceDominanceProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var tr Trace
		for i, v := range raw {
			m := Map{"u": float64(v), "v": float64(v%7) * 1.5}
			if err := tr.Append(float64(i), m); err != nil {
				return false
			}
		}
		maxm, mean := tr.MaxMap(), tr.MeanMap()
		for name := range maxm {
			if mean[name] > maxm[name]+1e-9 {
				return false
			}
		}
		for i := 0; i < tr.Len(); i++ {
			m, err := tr.At(float64(i))
			if err != nil {
				return false
			}
			for name, p := range m {
				if p > maxm[name]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanWeighting(t *testing.T) {
	// Non-uniform sampling: a long-held value must dominate the mean.
	var tr Trace
	if err := tr.Append(0, Map{"a": 10}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(9, Map{"a": 0}); err != nil { // held 9 s at 10 W
		t.Fatal(err)
	}
	mean := tr.MeanMap()
	if math.Abs(mean["a"]-10) > 1e-9 { // 10 W over the whole observed span
		t.Errorf("weighted mean = %g, want 10", mean["a"])
	}
	if err := tr.Append(12, Map{"a": 4}); err != nil { // 0 W for 3 s
		t.Fatal(err)
	}
	mean = tr.MeanMap()
	if math.Abs(mean["a"]-7.5) > 1e-9 { // (10·9 + 0·3) / 12
		t.Errorf("weighted mean = %g, want 7.5", mean["a"])
	}
}
