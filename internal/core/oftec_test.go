package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/evalcache"
	"oftec/internal/floorplan"
	"oftec/internal/power"
	"oftec/internal/solver"
	"oftec/internal/solver/testutil"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// testConfig mirrors the thermal test configuration: reduced resolution for
// speed, identical physics.
func testConfig() thermal.Config {
	cfg := thermal.DefaultConfig()
	cfg.ChipRes = 8
	cfg.SpreaderRes = 7
	cfg.SinkRes = 6
	cfg.PCBRes = 4
	return cfg
}

func benchSystem(t *testing.T, bench string) *System {
	t.Helper()
	return benchSystemWith(t, bench, testConfig(), 0, nil)
}

// benchSystemWith builds a system over the full backend of bench on cfg,
// with an explicit evaluation-cache generation capacity (zero = default;
// the eviction tests use tiny capacities to force rotations). A non-nil
// hook runs before each scalar solve the backend is asked for, which
// through the cache is exactly once per deduplicated miss; a run's
// finite-difference probes evaluate concurrently, so it must be safe for
// concurrent use.
func benchSystemWith(t *testing.T, bench string, cfg thermal.Config, capacity int, hook func(omega, itec float64)) *System {
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
	var ev backend.Evaluator = backend.NewFull(m)
	if hook != nil {
		ev = hookedEval{Evaluator: ev, hook: hook}
	}
	return NewSystemShared(ev, evalcache.New(capacity))
}

// hookedEval wraps a backend and runs hook before each scalar solve it
// passes on.
type hookedEval struct {
	backend.Evaluator
	hook func(omega, itec float64)
}

func (h hookedEval) Evaluate(ctx context.Context, op backend.OpPoint, warm []float64) (*thermal.Result, error) {
	if op.K() == 1 {
		h.hook(op.Omega, op.Currents[0])
	}
	return h.Evaluator.Evaluate(ctx, op, warm)
}

// testModelOf digs the underlying physics model out of a system's backend
// for tests that exercise model-level APIs (zoning construction, hottest
// unit) alongside the decoupled evaluation path.
func testModelOf(t *testing.T, s *System) *thermal.Model {
	t.Helper()
	m, ok := backend.ModelOf(s.Backend())
	if !ok {
		t.Fatalf("backend %q exposes no underlying model", s.Backend().Name())
	}
	return m
}

func TestModeAndMethodStrings(t *testing.T) {
	if ModeHybrid.String() != "OFTEC" || ModeVariableFan.String() != "Var. ω" ||
		ModeFixedFan.String() != "Fixed ω" || ModeTECOnly.String() != "TEC only" {
		t.Error("mode names do not match the paper's figure labels")
	}
	if Mode(99).String() == "" || Method(99).String() == "" {
		t.Error("unknown enum values must still render")
	}
	if MethodSQP.String() != "active-set SQP" {
		t.Errorf("MethodSQP = %q", MethodSQP.String())
	}
}

// TestParseModeAndMethod: every mode and method has exactly one spelling,
// the parsers invert it, and an unknown or empty name fails listing the
// accepted ones.
func TestParseModeAndMethod(t *testing.T) {
	for want, name := range modeNames {
		if got, err := ParseMode(name); err != nil || got != Mode(want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, Mode(want))
		}
	}
	for want, name := range methodNames {
		if got, err := ParseMethod(name); err != nil || got != Method(want) {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, Method(want))
		}
	}
	for _, bad := range []string{"", "OFTEC", "nope", "neldermead", "hooke"} {
		if _, err := ParseMode(bad); err == nil || !strings.Contains(err.Error(), "oftec, var, fixed, teconly") {
			t.Errorf("ParseMode(%q): err = %v, want a rejection listing the modes", bad, err)
		}
		if _, err := ParseMethod(bad); err == nil || !strings.Contains(err.Error(), "(want sqp, interior, trust)") {
			t.Errorf("ParseMethod(%q): err = %v, want a rejection listing the methods", bad, err)
		}
	}
}

func TestEvaluateCaching(t *testing.T) {
	s := benchSystem(t, "CRC32")
	r1, err := evalAt(s, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := evalAt(s, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical operating points should hit the cache")
	}
	// Last-bit noise maps to the same key.
	r3, err := evalAt(s, 200+1e-12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r3 {
		t.Error("quantization should absorb last-bit noise")
	}
}

func TestOFTECOnMildBenchmark(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	cfg := s.Config()

	oftec, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if !oftec.Feasible {
		t.Fatalf("OFTEC infeasible on a mild benchmark: %v", oftec)
	}
	if oftec.ITEC <= 0 || oftec.ITEC > cfg.TEC.MaxCurrent {
		t.Errorf("I* = %g, want in (0, %g] (leakage savings pay for a small current)", oftec.ITEC, cfg.TEC.MaxCurrent)
	}
	if oftec.Omega <= 0 || oftec.Omega > cfg.Fan.OmegaMax {
		t.Errorf("ω* = %g outside (0, %g]", oftec.Omega, cfg.Fan.OmegaMax)
	}

	varFan, err := s.Run(Options{Mode: ModeVariableFan})
	if err != nil {
		t.Fatal(err)
	}
	if !varFan.Feasible {
		t.Fatal("variable-fan baseline infeasible on a mild benchmark")
	}
	if varFan.ITEC != 0 {
		t.Errorf("baseline used TEC current %g", varFan.ITEC)
	}
	// The paper's headline: OFTEC consumes less power and runs cooler
	// than the fan-only baseline on benchmarks both can cool.
	if oftec.CoolingPower() >= varFan.CoolingPower() {
		t.Errorf("OFTEC 𝒫 = %g not below baseline %g", oftec.CoolingPower(), varFan.CoolingPower())
	}
	if oftec.Result.MaxChipTemp >= varFan.Result.MaxChipTemp {
		t.Errorf("OFTEC Tmax = %g not below baseline %g",
			oftec.Result.MaxChipTemp, varFan.Result.MaxChipTemp)
	}
}

func TestOFTECRescuesHotBenchmark(t *testing.T) {
	s := benchSystem(t, "Quicksort")
	cfg := s.Config()

	oftec, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if !oftec.Feasible {
		t.Fatalf("OFTEC failed on Quicksort: %v", oftec)
	}
	if oftec.Result.MaxChipTemp >= cfg.TMax {
		t.Errorf("Tmax %g not strictly below TMax %g", oftec.Result.MaxChipTemp, cfg.TMax)
	}
	if oftec.ITEC < 0.5 {
		t.Errorf("hot benchmark should need substantial TEC current, got %g", oftec.ITEC)
	}

	for _, mode := range []Mode{ModeVariableFan, ModeFixedFan} {
		base, err := s.Run(Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if base.Feasible {
			t.Errorf("%s baseline should fail on Quicksort (Figure 6(e)), got %v", mode, base)
		}
	}
}

func TestTECOnlyRunsAway(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	out, err := s.Run(Options{Mode: ModeTECOnly})
	if err != nil {
		t.Fatal(err)
	}
	if out.Feasible {
		t.Fatalf("TEC-only system should hit thermal runaway (Section 6.2), got %v", out)
	}
	if !out.FailedAtOpt2 {
		t.Error("TEC-only failure should be detected at Optimization 2")
	}
	if out.Omega != 0 {
		t.Errorf("TEC-only mode moved the fan: ω = %g", out.Omega)
	}
}

func TestFixedFanPinsOmega(t *testing.T) {
	s := benchSystem(t, "CRC32")
	out, err := s.Run(Options{Mode: ModeFixedFan})
	if err != nil {
		t.Fatal(err)
	}
	want := units.RPMToRadPerSec(2000)
	if math.Abs(out.Omega-want) > 1e-9 {
		t.Errorf("fixed fan ω = %g, want %g", out.Omega, want)
	}
	if out.ITEC != 0 {
		t.Errorf("fixed fan baseline drove TECs: I = %g", out.ITEC)
	}
	// A fan whose top speed is below the pinned 2000 RPM cannot run the
	// baseline.
	cfg := testConfig()
	cfg.Fan.OmegaMax = units.RPMToRadPerSec(1500)
	slow := benchSystemWith(t, "CRC32", cfg, 0, nil)
	if _, err := slow.Run(Options{Mode: ModeFixedFan}); err == nil {
		t.Error("a pinned speed above the fan's top speed was accepted")
	}
}

func TestMinimizeMaxTempBeatsAlgorithm1Temperature(t *testing.T) {
	s := benchSystem(t, "BitCount")
	full, err := s.MinimizeMaxTemp(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	alg1, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	// Optimization 2 minimizes temperature; Algorithm 1 trades it for
	// power. Figure 6(e): OFTEC "slightly increases the temperature in
	// order to reduce the cooling power consumption."
	if full.Result.MaxChipTemp > alg1.Result.MaxChipTemp+0.5 {
		t.Errorf("min-max-temp (%g) hotter than Algorithm 1 (%g)",
			full.Result.MaxChipTemp, alg1.Result.MaxChipTemp)
	}
	if full.CoolingPower() < alg1.CoolingPower()-0.5 {
		t.Errorf("min-max-temp power (%g) below Algorithm 1 (%g); Opt2 should spend more",
			full.CoolingPower(), alg1.CoolingPower())
	}
}

func TestMinimizeMaxTempOFTECBeatsBaselines(t *testing.T) {
	// Figure 6(c): after Optimization 2, OFTEC achieves a lower maximum
	// temperature than both baselines on every benchmark.
	for _, bench := range []string{"Basicmath", "Quicksort"} {
		s := benchSystem(t, bench)
		oftec, err := s.MinimizeMaxTemp(Options{Mode: ModeHybrid})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeVariableFan, ModeFixedFan} {
			base, err := s.MinimizeMaxTemp(Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if oftec.Result.MaxChipTemp >= base.Result.MaxChipTemp {
				t.Errorf("%s: OFTEC Opt2 Tmax %g not below %s's %g",
					bench, oftec.Result.MaxChipTemp, mode, base.Result.MaxChipTemp)
			}
		}
	}
}

func TestSQPNearGridSearchOptimum(t *testing.T) {
	// Verify the active-set SQP solution quality against a dense grid
	// search on the true objective (Section 6.2: "the active-set SQP can
	// find a very high quality solution").
	s := benchSystem(t, "Stringsearch")
	cfg := s.Config()
	out, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}

	bnd, err := s.binding(nil)
	if err != nil {
		t.Fatal(err)
	}
	eval := bindingEval(bnd, nil)
	prob := &solver.Problem{
		F: func(x []float64) float64 { return coolingPowerObj(eval, x) },
		Cons: []solver.Func{
			func(x []float64) float64 { return maxTempObj(eval, x) - cfg.TMax },
		},
		Lower: []float64{0, 0},
		Upper: []float64{cfg.Fan.OmegaMax, cfg.TEC.MaxCurrent},
	}
	grid, err := testutil.GridSearch(prob, 33, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Feasible(0) {
		t.Fatal("grid search found no feasible point")
	}
	// SQP must be at least as good as the 33×33 grid up to a small slack.
	if out.CoolingPower() > grid.F+0.15 {
		t.Errorf("SQP 𝒫 = %g W, grid optimum ≈ %g W", out.CoolingPower(), grid.F)
	}
}

func TestAllMethodsProduceFeasibleSolutions(t *testing.T) {
	s := benchSystem(t, "FFT")
	var powers []float64
	for _, method := range []Method{MethodSQP, MethodInteriorPoint, MethodTrustRegion} {
		out, err := s.Run(Options{Mode: ModeHybrid, Method: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !out.Feasible {
			t.Errorf("%s: infeasible result %v", method, out)
			continue
		}
		powers = append(powers, out.CoolingPower())
	}
	// The methods should agree on the achievable power within a watt or
	// two (the paper found SQP best but all workable).
	if len(powers) > 1 {
		minP, maxP := powers[0], powers[0]
		for _, p := range powers {
			minP = math.Min(minP, p)
			maxP = math.Max(maxP, p)
		}
		if maxP-minP > 4 {
			t.Errorf("methods disagree widely: %v", powers)
		}
	}
}

func TestVerifyExact(t *testing.T) {
	s := benchSystem(t, "CRC32")
	out, err := s.Run(Options{Mode: ModeHybrid, VerifyExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.ExactResult == nil {
		t.Fatal("VerifyExact did not populate ExactResult")
	}
	if out.ExactResult.Runaway {
		t.Fatal("exact verification ran away at the optimum")
	}
	if d := math.Abs(out.ExactResult.MaxChipTemp - out.Result.MaxChipTemp); d > 3 {
		t.Errorf("exact and linearized Tmax differ by %g K at the optimum", d)
	}
}

func TestOutcomeString(t *testing.T) {
	s := benchSystem(t, "CRC32")
	out, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() == "" {
		t.Error("empty outcome string")
	}
	if out.Runtime <= 0 {
		t.Error("runtime not measured")
	}
}

func TestMultiStartOption(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	plain, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := s.Run(Options{Mode: ModeHybrid, MultiStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !multi.Feasible {
		t.Fatal("multistart run infeasible")
	}
	// Multistart includes the plain path among its candidates, so it can
	// only match or improve the objective.
	if multi.CoolingPower() > plain.CoolingPower()+1e-6 {
		t.Errorf("multistart 𝒫 = %g worse than plain %g",
			multi.CoolingPower(), plain.CoolingPower())
	}
	if multi.Opt1Report.FuncEvals <= plain.Opt1Report.FuncEvals {
		t.Errorf("multistart evals %d not larger than plain %d",
			multi.Opt1Report.FuncEvals, plain.Opt1Report.FuncEvals)
	}
}

func TestBoundsRejectUnknownMode(t *testing.T) {
	s := benchSystem(t, "CRC32")
	if _, _, err := s.bounds(Mode(42), 1); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := s.Run(Options{Mode: Mode(42)}); err == nil {
		t.Error("Run accepted unknown mode")
	}
}

// TestFlowGeneralityQuadCore exercises the paper's Figure 5 claim that the
// flow is not tied to the Alpha 21264: OFTEC runs unchanged on a synthetic
// four-core floorplan with one hot core.
func TestFlowGeneralityQuadCore(t *testing.T) {
	cfg := testConfig()
	fp := floorplan.QuadCore()
	cfg.Floorplan = fp
	cfg.Chip.Edge = fp.Width
	cfg.TIM1.Edge = fp.Width
	cfg.TEC.Uncovered = []string{
		"Icache0", "Dcache0", "Icache1", "Dcache1",
		"Icache2", "Dcache2", "Icache3", "Dcache3",
	}

	// Core 2 runs hot; the others idle.
	pm := make(power.Map)
	for _, u := range fp.Units() {
		pm[u.Name] = 0.05e6 * u.Rect.Area()
	}
	for _, unit := range []string{"IntExec2", "IntReg2", "LdStQ2"} {
		u, _ := fp.Unit(unit)
		pm[unit] = 1.1e6 * u.Rect.Area()
	}

	m, err := thermal.NewModel(cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(backend.NewFull(m))
	out, err := sys.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatalf("OFTEC infeasible on the quad-core plan: %v", out)
	}
	hot, err := m.HottestUnit(out.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(hot, "2") {
		t.Errorf("hottest unit %s, want one of core 2's units", hot)
	}
	if out.ITEC < 0 || out.ITEC > cfg.TEC.MaxCurrent {
		t.Errorf("I* = %g outside the actuator range", out.ITEC)
	}
	if out.Omega <= 0 || out.Omega > cfg.Fan.OmegaMax {
		t.Errorf("ω* = %g outside the actuator range", out.Omega)
	}
}
