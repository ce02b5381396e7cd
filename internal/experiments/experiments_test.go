package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"oftec/internal/core"
	"oftec/internal/units"
	"oftec/internal/workload"
)

func TestSurfaceShapeMatchesFigure6a(t *testing.T) {
	setup := FastSetup()
	pts, err := SurfaceContext(context.Background(), setup, "Basicmath", 9, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 45 {
		t.Fatalf("got %d points, want 45", len(pts))
	}
	// Figure 6(a): runaway (infinite 𝒯) at small ω regardless of I, and a
	// finite basin at higher ω.
	var runawayLowOmega, finiteHighOmega bool
	for _, p := range pts {
		if p.Omega == 0 && p.Runaway {
			runawayLowOmega = true
		}
		if p.Omega > 400 && !p.Runaway {
			finiteHighOmega = true
		}
		if p.Runaway && (!math.IsInf(p.MaxTemp, 1) || !math.IsInf(p.Power, 1)) {
			t.Error("runaway point with finite objective")
		}
	}
	if !runawayLowOmega {
		t.Error("no runaway at ω=0: the dark-red wall of Figure 6(a) is missing")
	}
	if !finiteHighOmega {
		t.Error("no finite region at high ω")
	}
	// Increasing I at ω=0 must not rescue the chip (the paper's point that
	// TECs alone cannot avoid runaway).
	for _, p := range pts {
		if p.Omega == 0 && !p.Runaway {
			t.Errorf("ω=0, I=%g escaped runaway", p.ITEC)
		}
	}
}

func TestSurfaceCSV(t *testing.T) {
	setup := FastSetup()
	pts, err := SurfaceContext(context.Background(), setup, "CRC32", 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSurfaceCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 { // header + 9 points
		t.Fatalf("CSV has %d lines, want 10", len(lines))
	}
	if !strings.HasPrefix(lines[0], "omega_rad_s,") {
		t.Errorf("unexpected header %q", lines[0])
	}
	if _, err := SurfaceContext(context.Background(), setup, "CRC32", 1, 3, 0); err == nil {
		t.Error("degenerate grid accepted")
	}
	if _, err := SurfaceContext(context.Background(), setup, "CRC32", 1<<62+1, 4, 0); err == nil {
		t.Error("grid whose point count overflows accepted")
	}
	if _, err := SurfaceContext(context.Background(), setup, "CRC32", 1e9, 1e9, 0); err == nil {
		t.Error("10⁹×10⁹ grid accepted")
	}
	if _, err := SurfaceContext(context.Background(), setup, "CRC32", 1<<22+1, 2, 0); err == nil {
		t.Error("grid past the point bound accepted")
	}
	if _, err := SurfaceContext(context.Background(), setup, "NoSuchBench", 3, 3, 0); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestSurfaceParallelMatchesSerial pins the fan-out contract: the
// parallel surface sweep must be byte-identical to the serial reference
// path, runaway wall included. Fresh systems on both sides keep the
// caches independent, so agreement means the solves themselves agree.
func TestSurfaceParallelMatchesSerial(t *testing.T) {
	setup := FastSetup()
	serial, err := SurfaceContext(context.Background(), setup, "Basicmath", 10, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SurfaceContext(context.Background(), setup, "Basicmath", 10, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("length mismatch: serial %d, parallel %d", len(serial), len(par))
	}
	for k := range serial {
		if !reflect.DeepEqual(serial[k], par[k]) {
			t.Fatalf("grid point %d differs:\nserial   %+v\nparallel %+v", k, serial[k], par[k])
		}
	}
}

// fastSubset trims the benchmark list to keep the heavier series tests
// quick while still covering a mild and a hot benchmark.
func fastSubset(t *testing.T, names ...string) Setup {
	t.Helper()
	s := FastSetup()
	var list []workload.Benchmark
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, b)
	}
	s.Benchmarks = list
	return s
}

func TestOpt1SeriesShape(t *testing.T) {
	s := fastSubset(t, "Basicmath", "Quicksort")
	series, err := Opt1Series(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 { // 2 benchmarks × 3 methods
		t.Fatalf("got %d results, want 6", len(series))
	}
	get := func(bench string, mode core.Mode) MethodResult {
		for _, r := range series {
			if r.Benchmark == bench && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("missing %s/%s", bench, mode)
		return MethodResult{}
	}
	// Figure 6(e)/(f) shape.
	if !get("Basicmath", core.ModeHybrid).Feasible ||
		!get("Basicmath", core.ModeVariableFan).Feasible {
		t.Error("Basicmath should be feasible for OFTEC and the variable-fan baseline")
	}
	if !get("Quicksort", core.ModeHybrid).Feasible {
		t.Error("OFTEC should cool Quicksort")
	}
	if get("Quicksort", core.ModeVariableFan).Feasible {
		t.Error("variable-fan baseline should fail on Quicksort")
	}
	of := get("Basicmath", core.ModeHybrid)
	va := get("Basicmath", core.ModeVariableFan)
	if of.PowerW >= va.PowerW {
		t.Errorf("OFTEC power %g not below variable-fan %g", of.PowerW, va.PowerW)
	}

	var buf bytes.Buffer
	if err := WriteSeriesTable(&buf, "Optimization 1", series, Opt1PowerDigits); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Quicksort") {
		t.Error("rendered table is missing benchmarks")
	}
}

func TestOpt2SeriesShape(t *testing.T) {
	s := fastSubset(t, "Susan")
	series, err := Opt2Series(s)
	if err != nil {
		t.Fatal(err)
	}
	var of, va MethodResult
	for _, r := range series {
		switch r.Mode {
		case core.ModeHybrid:
			of = r
		case core.ModeVariableFan:
			va = r
		}
	}
	// Figure 6(c): OFTEC reaches a lower minimum temperature; Figure 6(d):
	// it spends more power doing so.
	if of.MaxTempC >= va.MaxTempC {
		t.Errorf("Opt2 OFTEC Tmax %g not below variable-fan %g", of.MaxTempC, va.MaxTempC)
	}
	if of.PowerW <= va.PowerW {
		t.Errorf("Opt2 OFTEC power %g should exceed variable-fan %g (Figure 6(d))", of.PowerW, va.PowerW)
	}
}

func TestTECOnlySeriesAllRunaway(t *testing.T) {
	s := fastSubset(t, "Basicmath", "CRC32")
	series, err := TECOnlySeries(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range series {
		if r.Feasible {
			t.Errorf("%s: TEC-only should be infeasible", r.Benchmark)
		}
		if !math.IsInf(r.MaxTempC, 1) {
			t.Errorf("%s: TEC-only should run away, got %g °C", r.Benchmark, r.MaxTempC)
		}
	}
}

func TestTable2(t *testing.T) {
	s := fastSubset(t, "CRC32", "Quicksort")
	rows, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Table 2 tendency: the hot benchmark needs more TEC current and a
	// faster fan than the mild one.
	if rows[1].ITEC <= rows[0].ITEC {
		t.Errorf("Quicksort I* (%g) not above CRC32's (%g)", rows[1].ITEC, rows[0].ITEC)
	}
	if rows[1].OmegaRPM <= rows[0].OmegaRPM {
		t.Errorf("Quicksort ω* (%g) not above CRC32's (%g)", rows[1].OmegaRPM, rows[0].OmegaRPM)
	}
	for _, r := range rows {
		if r.Runtime <= 0 {
			t.Errorf("%s: missing runtime", r.Benchmark)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "I*_TEC") {
		t.Error("Table 2 header missing")
	}
}

func TestSolverComparison(t *testing.T) {
	s := FastSetup()
	rows, err := SolverComparison(s, "Stringsearch")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (FD and gradient variants of the paper's 3 methods)", len(rows))
	}
	var sqp, sqpGrad SolverRow
	for _, r := range rows {
		if r.Method == core.MethodSQP {
			if r.Gradient {
				sqpGrad = r
			} else {
				sqp = r
			}
		}
		if !r.Feasible {
			t.Errorf("%s (gradient=%t): infeasible", r.Method, r.Gradient)
		}
		if !r.Gradient && r.GradEvals != 0 {
			t.Errorf("%s: finite-difference row reports %d gradient evaluations", r.Method, r.GradEvals)
		}
	}
	if sqpGrad.GradEvals == 0 {
		t.Error("gradient-mode SQP row reports zero adjoint evaluations")
	}
	if sqpGrad.FuncEvals >= sqp.FuncEvals {
		t.Errorf("gradient-mode SQP used %d function evaluations, FD used %d — adjoint should need fewer",
			sqpGrad.FuncEvals, sqp.FuncEvals)
	}
	// Section 5.2: the active-set SQP produces high-quality results — it
	// must be within half a watt of the best method here.
	best := math.Inf(1)
	for _, r := range rows {
		best = math.Min(best, r.PowerW)
	}
	if sqp.PowerW > best+0.5 {
		t.Errorf("SQP power %g more than 0.5 W above best %g", sqp.PowerW, best)
	}
}

func TestSummarizeMatchesPaperShape(t *testing.T) {
	s := fastSubset(t, "Basicmath", "CRC32", "Stringsearch", "Quicksort")
	series, err := Opt1Series(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(series)
	if sum.OFTECFeasible != 4 {
		t.Errorf("OFTEC feasible on %d of 4", sum.OFTECFeasible)
	}
	if sum.VarFeasible != 3 || sum.FixedFeasible != 3 {
		t.Errorf("baselines feasible on %d/%d, want 3/3 (mild only)", sum.VarFeasible, sum.FixedFeasible)
	}
	if len(sum.Comparable) != 3 {
		t.Fatalf("comparable set %v, want the three mild benchmarks", sum.Comparable)
	}
	// Headline claims, in shape: positive savings and cooler peaks.
	if sum.AvgPowerSavingVsVar <= 0 || sum.AvgPowerSavingVsVar > 25 {
		t.Errorf("power saving vs var-ω = %.1f%%, want positive single digits", sum.AvgPowerSavingVsVar)
	}
	if sum.AvgPowerSavingVsFixed <= 0 {
		t.Errorf("power saving vs fixed-ω = %.1f%%, want positive", sum.AvgPowerSavingVsFixed)
	}
	if sum.AvgTempReductionVsVar <= 0 || sum.AvgTempReductionVsVar > 15 {
		t.Errorf("temp reduction vs var-ω = %.1f °C, want a few degrees", sum.AvgTempReductionVsVar)
	}
}

func TestWriteTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable1(&buf, DefaultSetup().Config); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Chip", "TIM 1", "Heat spreader", "TIM 2", "Heat sink", "100", "1.75", "400", "15µm", "7mm"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultSetupMatchesPaperConstants(t *testing.T) {
	s := DefaultSetup()
	cfg := s.Config
	if got := units.KToC(cfg.Ambient); math.Abs(got-45) > 1e-9 {
		t.Errorf("ambient %g °C, want 45", got)
	}
	if got := units.KToC(cfg.TMax); math.Abs(got-90) > 1e-9 {
		t.Errorf("TMax %g °C, want 90", got)
	}
	if cfg.Fan.OmegaMax != 524 {
		t.Errorf("ω_max = %g, want 524 rad/s", cfg.Fan.OmegaMax)
	}
	if cfg.TEC.MaxCurrent != 5 {
		t.Errorf("I_max = %g, want 5 A", cfg.TEC.MaxCurrent)
	}
	if cfg.Fan.C != 1.6e-7 {
		t.Errorf("fan constant %g, want 1.6e-7", cfg.Fan.C)
	}
	if cfg.HeatSink.P != 0.97 || cfg.HeatSink.R != -0.25 || cfg.HeatSink.GHS != 0.525 {
		t.Errorf("heat sink law (%g, %g, %g), want (0.97, -0.25, 0.525)",
			cfg.HeatSink.P, cfg.HeatSink.R, cfg.HeatSink.GHS)
	}
	if len(s.Benchmarks) != 8 {
		t.Errorf("benchmark count %d, want 8", len(s.Benchmarks))
	}
}
