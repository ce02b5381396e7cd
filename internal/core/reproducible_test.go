package core

import (
	"reflect"
	"testing"

	"oftec/internal/units"
)

// TestMultiStartReproducible: a multistart launch runs its starts in
// order, so two runs on fresh Systems agree bit for bit. Interior point
// with adjoint gradients on FFT and BitCount is where concurrent starts
// used to fill one evaluation-cache cell from different incumbents, and
// the answer changed from run to run.
func TestMultiStartReproducible(t *testing.T) {
	for _, bench := range []string{"FFT", "BitCount"} {
		t.Run(bench, func(t *testing.T) {
			run := func() *Outcome {
				out, err := benchSystem(t, bench).Run(Options{
					Mode: ModeHybrid, Method: MethodInteriorPoint, Gradient: true, MultiStart: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				out.Runtime = 0
				return out
			}
			first, second := run(), run()
			if !reflect.DeepEqual(first, second) {
				t.Errorf("runs differ:\nfirst  %+v\nsecond %+v", first, second)
			}
		})
	}
}

// TestParetoFrontReproducible: a Pareto sweep solves its thresholds in
// order, each with the caller's Options, so the front is the same
// whether the solver's finite-difference probes run on one worker or
// GOMAXPROCS.
func TestParetoFrontReproducible(t *testing.T) {
	var thresholds []float64
	for c := 95.0; c >= 65; c -= 5 {
		thresholds = append(thresholds, units.CToK(c))
	}
	front := func(workers int) []ParetoPoint {
		pts, err := benchSystem(t, "Quicksort").ParetoFront(thresholds,
			Options{Mode: ModeHybrid, Method: MethodInteriorPoint, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial, wide := front(1), front(0)
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("fronts differ:\nWorkers 1 %+v\nWorkers 0 %+v", serial, wide)
	}
}
