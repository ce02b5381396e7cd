package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/thermal"
	"oftec/internal/workload"
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
// having "sampled" exactly one operating point. The GradMinStep floor
// keeps probes on distinct grid points.
func TestGradientTinySpanProbesDistinct(t *testing.T) {
	cfg := testConfig()
	cfg.TEC.MaxCurrent = 1e-6
	s := systemFromConfig(t, "Basicmath", cfg)

	// Probe solves run concurrently, so the hook guards its map.
	var mu sync.Mutex
	seen := map[float64]bool{}
	s.solveHook = func(omega, itec float64) {
		mu.Lock()
		seen[math.Round(itec*1e9)/1e9] = true
		mu.Unlock()
	}
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

// systemFromConfig is benchSystemCap with a caller-supplied thermal
// configuration.
func systemFromConfig(t *testing.T, bench string, cfg thermal.Config) *System {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	m, err := thermal.NewModel(cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	return newSystemCap(backend.NewFull(m), 0)
}

// paretoHookFront fabricates per-threshold outcomes so the parallel and
// serial Pareto paths can be compared under controlled fault injection.
func paretoHookFront(ambient float64, errAt float64, injected error) func(o Options) (*Outcome, error) {
	return func(o Options) (*Outcome, error) {
		switch {
		case errAt != 0 && math.Abs(o.TMax-errAt) < 1e-9:
			return nil, injected
		case o.TMax >= ambient+20:
			return &Outcome{
				Feasible: true,
				Omega:    100,
				ITEC:     0.5,
				Result:   &thermal.Result{MaxChipTemp: o.TMax - 1},
			}, nil
		default:
			return &Outcome{Result: &thermal.Result{MaxChipTemp: o.TMax + 5}}, nil
		}
	}
}

// TestParetoParallelErrorBelowFrontierMatchesSerial is the regression for
// the parallel-vs-serial error-semantics bug: a backend that fails only
// on a threshold below the frontier (deep in the infeasible region the
// serial path never probes, because it short-circuits at the first
// infeasible threshold) must not fail the parallel front either.
func TestParetoParallelErrorBelowFrontierMatchesSerial(t *testing.T) {
	s := benchSystem(t, "CRC32")
	ambient := s.Config().Ambient
	boom := errors.New("backend melted below the frontier")
	// Feasible at ambient+30/+20, infeasible at +10, error injected at +5
	// — strictly below the first infeasible threshold.
	s.paretoRunHook = paretoHookFront(ambient, ambient+5, boom)
	thresholds := []float64{ambient + 30, ambient + 20, ambient + 10, ambient + 5}

	serial, serr := s.ParetoFront(thresholds, Options{Workers: 1})
	if serr != nil {
		t.Fatalf("serial front failed: %v", serr)
	}
	par, perr := s.ParetoFront(thresholds, Options{Workers: 4})
	if perr != nil {
		t.Fatalf("parallel front failed on an error the serial path never hits: %v", perr)
	}
	if len(par) != len(serial) {
		t.Fatalf("front lengths diverged: %d vs %d", len(par), len(serial))
	}
	for i := range par {
		if par[i] != serial[i] {
			t.Errorf("point %d diverged: parallel %+v, serial %+v", i, par[i], serial[i])
		}
	}
	// The blanked tail: below the frontier both paths report bare
	// thresholds.
	if last := par[len(par)-1]; last.Feasible || last.Power != 0 {
		t.Errorf("below-frontier point not blanked: %+v", last)
	}
}

// TestParetoParallelErrorAtFrontierMatchesSerial: an error at a threshold
// the serial path does solve must fail both paths identically.
func TestParetoParallelErrorAtFrontierMatchesSerial(t *testing.T) {
	s := benchSystem(t, "CRC32")
	ambient := s.Config().Ambient
	boom := errors.New("backend melted at the frontier")
	s.paretoRunHook = paretoHookFront(ambient, ambient+20, boom)
	thresholds := []float64{ambient + 30, ambient + 20, ambient + 10}

	_, serr := s.ParetoFront(thresholds, Options{Workers: 1})
	_, perr := s.ParetoFront(thresholds, Options{Workers: 4})
	if serr == nil || perr == nil {
		t.Fatalf("expected both paths to fail: serial %v, parallel %v", serr, perr)
	}
	for _, err := range []error{serr, perr} {
		if !errors.Is(err, boom) {
			t.Errorf("error lost the injected cause: %v", err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%g", ambient+20)) {
			t.Errorf("error does not name the failing threshold: %v", err)
		}
	}
}
