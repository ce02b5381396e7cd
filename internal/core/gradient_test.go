package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"oftec/internal/thermal"
)

// TestGradientModeRunMatchesFiniteDifferences: Algorithm 1 steered by
// adjoint gradients must land on the same answer as the finite-difference
// run, record the analytic evaluations, and spend fewer function
// evaluations (each gradient is one adjoint pair instead of 2(1+k)
// probes).
func TestGradientModeRunMatchesFiniteDifferences(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	cfg := s.Config()

	fd, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := s.Run(Options{Mode: ModeHybrid, Gradient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fd.Feasible || !gr.Feasible {
		t.Fatalf("feasibility diverged: FD %v, gradient %v", fd.Feasible, gr.Feasible)
	}
	if gr.Opt1Report.GradEvals == 0 {
		t.Error("gradient run recorded no adjoint evaluations in Optimization 1")
	}
	if fd.Opt1Report.GradEvals != 0 || fd.Opt2Report.GradEvals != 0 {
		t.Error("finite-difference run recorded adjoint evaluations")
	}
	// The smoothed maximum over-estimates by at most DefaultSmoothBound,
	// so the gradient run's feasibility claim is strict.
	if !gr.Result.MeetsConstraint(cfg.TMax) {
		t.Errorf("gradient-mode operating point violates T_max: %g K > %g K",
			gr.Result.MaxChipTemp, cfg.TMax)
	}
	// Same trade-off curve point, modulo the ≤ 0.05 K objective smoothing.
	if rel := math.Abs(gr.CoolingPower()-fd.CoolingPower()) / fd.CoolingPower(); rel > 0.05 {
		t.Errorf("cooling power diverged: gradient %g W vs FD %g W (rel %g)",
			gr.CoolingPower(), fd.CoolingPower(), rel)
	}
	fdEvals := fd.Opt1Report.FuncEvals + fd.Opt2Report.FuncEvals
	grEvals := gr.Opt1Report.FuncEvals + gr.Opt2Report.FuncEvals
	if grEvals >= fdEvals {
		t.Errorf("gradient run spent %d function evaluations, finite differences %d — probes did not collapse",
			grEvals, fdEvals)
	}
}

// TestGradientModeZonedRun: the zoned path shares runVector, so gradient
// mode must light up there too (GradientOf resolves through the zoned
// binding to the zoned full backend).
func TestGradientModeZonedRun(t *testing.T) {
	s := benchSystem(t, "Quicksort")
	cfg := s.Config()
	assign, n := ClusterZones()
	z, err := testModelOf(t, s).NewZoning(assign, n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.RunZoned(z, Options{Mode: ModeHybrid, Gradient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatal("zoned gradient run infeasible on a mild benchmark")
	}
	if out.Report.GradEvals+out.Opt2Report.GradEvals == 0 {
		t.Error("zoned gradient run recorded no adjoint evaluations")
	}
	if !out.Result.MeetsConstraint(cfg.TMax) {
		t.Errorf("zoned gradient-mode operating point violates T_max: %g K",
			out.Result.MaxChipTemp)
	}
}

// TestGradientTinySpanProbesDistinct is the core-level regression for the
// cache-quantization bug: with a TEC rated at 1 µA the current span is
// 1e-6 A, the legacy scaled probe step 1e-5·span = 1e-11 A fell below the
// evaluation cache's 1e-9 quantization grid, every probe aliased onto its
// base point, and the solver declared convergence at the starting point
// having "sampled" exactly one operating point. The solvers' floor on
// the finite-difference step keeps probes on distinct grid points.
func TestGradientTinySpanProbesDistinct(t *testing.T) {
	cfg := testConfig()
	cfg.TEC.MaxCurrent = 1e-6
	// Probe solves run concurrently, so the hook guards its map.
	var mu sync.Mutex
	seen := map[float64]bool{}
	s := benchSystemWith(t, "Basicmath", cfg, 0, func(omega, itec float64) {
		mu.Lock()
		seen[math.Round(itec*1e9)/1e9] = true
		mu.Unlock()
	})
	// Hybrid mode keeps both axes live; the fan axis spans hundreds of
	// rad/s and probes fine either way, while the current axis has the
	// micro-span. Every distinct current the solver manages to sample
	// shows up in the hook; pre-fix the difference quotient on the current
	// axis was built from aliased probes, g[1] ≡ 0, and the solver never
	// moved — or even probed — off the starting current.
	if _, err := s.Run(Options{Mode: ModeHybrid}); err != nil {
		t.Fatal(err)
	}
	if len(seen) < 3 {
		t.Errorf("solver sampled only %d distinct TEC currents on the 1e-9 grid — probes aliased (pre-fix this is 1)", len(seen))
	}
}

// fakeParetoRun fabricates per-threshold outcomes so ParetoFront's
// frontier and error rules (paretoSweep) can be checked under controlled
// fault injection: feasible at ambient+20 K and above, infeasible below,
// and the injected error at every threshold in errAt. It records the
// thresholds it was asked to solve in *solved.
func fakeParetoRun(ambient float64, injected error, solved *[]float64, errAt ...float64) func(o Options) (*Outcome, error) {
	return func(o Options) (*Outcome, error) {
		*solved = append(*solved, o.TMax)
		for _, e := range errAt {
			if math.Abs(o.TMax-e) < 1e-9 {
				return nil, injected
			}
		}
		if o.TMax >= ambient+20 {
			return &Outcome{
				Feasible: true,
				Omega:    100,
				ITEC:     0.5,
				Result:   &thermal.Result{MaxChipTemp: o.TMax - 1},
			}, nil
		}
		return &Outcome{Result: &thermal.Result{MaxChipTemp: o.TMax + 5}}, nil
	}
}

// TestParetoErrorBelowFrontierNeverSolved: the sweep stops solving at the
// first infeasible threshold, so a backend that fails only deeper in the
// infeasible region cannot fail the front, and every point below the
// frontier comes back blank.
func TestParetoErrorBelowFrontierNeverSolved(t *testing.T) {
	ambient := thermal.DefaultConfig().Ambient
	var solved []float64
	// Feasible at ambient+30/+20, infeasible at +10, error injected at +5
	// — strictly below the first infeasible threshold.
	run := fakeParetoRun(ambient, errors.New("backend melted below the frontier"), &solved, ambient+5)
	thresholds := []float64{ambient + 5, ambient + 30, ambient + 10, ambient + 20}

	front, err := paretoSweep(thresholds, Options{}, run)
	if err != nil {
		t.Fatalf("front failed on an error below the frontier: %v", err)
	}
	want := []float64{ambient + 30, ambient + 20, ambient + 10}
	if !reflect.DeepEqual(solved, want) {
		t.Errorf("solved thresholds %v, want %v (descending, stopping at the first infeasible)", solved, want)
	}
	if len(front) != len(thresholds) {
		t.Fatalf("front has %d points, want %d", len(front), len(thresholds))
	}
	for i, pt := range front {
		if i > 0 && pt.TMax >= front[i-1].TMax {
			t.Errorf("thresholds not descending: %g then %g", front[i-1].TMax, pt.TMax)
		}
		if feasible := i < 2; pt.Feasible != feasible {
			t.Errorf("point %d (%g K): Feasible=%t, want %t", i, pt.TMax, pt.Feasible, feasible)
		}
	}
	if last := front[len(front)-1]; last != (ParetoPoint{TMax: ambient + 5}) {
		t.Errorf("below-frontier point not blanked: %+v", last)
	}
}

// TestParetoErrorAtFrontierFails: an error at a threshold the sweep
// solves fails it, and with errors at two solved thresholds the sweep
// reports the first in descending order, naming it.
func TestParetoErrorAtFrontierFails(t *testing.T) {
	ambient := thermal.DefaultConfig().Ambient
	boom := errors.New("backend melted at the frontier")
	var solved []float64
	run := fakeParetoRun(ambient, boom, &solved, ambient+10, ambient+20)
	thresholds := []float64{ambient + 10, ambient + 20, ambient + 30}

	_, err := paretoSweep(thresholds, Options{}, run)
	if !errors.Is(err, boom) {
		t.Fatalf("error lost the injected cause: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%g", ambient+20)) {
		t.Errorf("error does not name the first failing threshold in descending order (%g K): %v", ambient+20, err)
	}
	if want := []float64{ambient + 30, ambient + 20}; !reflect.DeepEqual(solved, want) {
		t.Errorf("solved thresholds %v, want %v", solved, want)
	}
}
