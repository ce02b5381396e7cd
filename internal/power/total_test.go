package power_test

import (
	"math"
	"testing"

	"oftec/internal/floorplan"
	"oftec/internal/workload"
)

// TestTotalBitwiseStable: repeated Total calls on one Table-2 power map
// return the same bits. BuildLUT divides by Total, so a sum that moved by
// an ulp with Go's randomized map order made LUT traces differ from run
// to run.
func TestTotalBitwiseStable(t *testing.T) {
	fp := floorplan.AlphaEV6()
	for _, b := range workload.All() {
		pm, err := b.PowerMap(fp)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Float64bits(pm.Total())
		for i := 0; i < 2000; i++ {
			if got := math.Float64bits(pm.Total()); got != want {
				t.Fatalf("%s: call %d returned %#x, first call %#x", b.Name, i, got, want)
			}
		}
	}
}
