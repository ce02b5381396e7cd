// Package experiments reproduces the paper's evaluation section: the
// objective-function surfaces of Figure 6(a)/(b), the per-benchmark
// comparisons of Figure 6(c)-(f), Table 2's optimal operating points and
// runtimes, the TEC-only thermal-runaway demonstration, and the Section
// 5.2 solver comparison. The same generators drive cmd/benchtable,
// cmd/sweep, and the repository's benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/parallel"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// Setup bundles the package configuration and benchmark list under test.
type Setup struct {
	Config     thermal.Config
	Benchmarks []workload.Benchmark
	// Backend names the evaluation backend every experiment builds on
	// ("full", "rom"); empty selects "full".
	Backend string
}

// DefaultSetup reproduces the paper's configuration (Section 6.1) over the
// eight MiBench benchmarks at the full grid resolution.
func DefaultSetup() Setup {
	return Setup{Config: thermal.DefaultConfig(), Benchmarks: workload.All()}
}

// FastSetup is DefaultSetup at reduced grid resolution, for tests and
// quick iterations; the qualitative results are unchanged.
func FastSetup() Setup {
	cfg := thermal.DefaultConfig()
	cfg.ChipRes = 8
	cfg.SpreaderRes = 7
	cfg.SinkRes = 6
	cfg.PCBRes = 4
	return Setup{Config: cfg, Benchmarks: workload.All()}
}

// system builds the core system for one benchmark on the setup's backend.
func (s Setup) system(bench workload.Benchmark) (*core.System, error) {
	pm, err := bench.PowerMap(s.Config.Floorplan)
	if err != nil {
		return nil, err
	}
	ev, err := backend.New(s.Backend, s.Config, pm)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(ev), nil
}

// System exposes the per-benchmark system construction for external
// drivers (CLIs, examples, benchmarks).
func (s Setup) System(benchName string) (*core.System, error) {
	b, err := workload.ByName(benchName)
	if err != nil {
		return nil, err
	}
	return s.system(b)
}

// SurfacePoint is one sample of the Figure 6(a)/(b) surfaces.
type SurfacePoint struct {
	Omega   float64 // rad/s
	ITEC    float64 // A
	MaxTemp float64 // kelvin; +Inf on runaway
	Power   float64 // watts (𝒫); +Inf on runaway
	Runaway bool
}

// SurfaceContext evaluates 𝒯(ω, I) and 𝒫(ω, I) on an nOmega×nI uniform
// grid for one benchmark, the data behind Figure 6(a) and (b), in
// row-major (ω, then I) order. Rows of constant ω are independent and fan
// out over workers goroutines: zero sizes the pool to GOMAXPROCS, one
// forces the serial reference path. Within a row the converged field at
// each point warm-starts the next I step, which cuts the solver iterations
// on the smooth stretches of the surface. The carry never crosses rows, so
// every point's inputs are fixed by its own row alone and results are
// identical for any worker count. When ctx is cancelled (deadline, signal)
// the sweep stops issuing rows and returns ctx's error. Rows already
// completed are discarded: a partial surface has holes in row-major
// order, so callers that want partial data should shrink the grid instead.
func SurfaceContext(ctx context.Context, setup Setup, benchName string, nOmega, nI, workers int) ([]SurfacePoint, error) {
	sys, err := setup.System(benchName)
	if err != nil {
		return nil, err
	}
	return SurfaceSystem(ctx, sys, nOmega, nI, workers)
}

// maxSurfacePoints bounds a surface sweep's grid: 2²² points, 160 MiB of
// SurfacePoints, far past any figure's 40×40.
const maxSurfacePoints = 1 << 22

// SurfaceSystem sweeps an already-built System — the form a long-running
// service uses, so the sweep shares the system's model, ROM basis, and
// evaluation cache with every other request for the same chip instead of
// assembling a fresh model per sweep. Grid geometry comes from the
// system's configuration; ctx bounds the sweep and each point's solve.
//
// When the system's backend supports batched evaluation, each ω-row is
// submitted as one block: the thermal layer assembles and factorizes once
// per row and sweeps the current axis as blocked multi-RHS solves, with
// the row's first solution warm-starting the rest (the batch analogue of
// the per-point carry a backend without that capability gets below).
// Either way the unit of parallelism is one row and no state crosses rows,
// so results are identical for any worker count.
func SurfaceSystem(ctx context.Context, sys *core.System, nOmega, nI, workers int) ([]SurfacePoint, error) {
	if nOmega < 2 || nI < 2 {
		return nil, fmt.Errorf("experiments: surface grid %d×%d must be at least 2×2", nOmega, nI)
	}
	if nOmega > maxSurfacePoints || nI > maxSurfacePoints || nOmega*nI > maxSurfacePoints {
		return nil, fmt.Errorf("experiments: surface grid %d×%d exceeds the %d-point limit", nOmega, nI, maxSurfacePoints)
	}
	cfg := sys.Config()
	out := make([]SurfacePoint, nOmega*nI)
	batched := sys.SupportsBatch()
	err := parallel.ForEach(ctx, nOmega, workers, func(i int) error {
		omega := cfg.UMax() * float64(i) / float64(nOmega-1)
		if batched {
			ops := make([]backend.OpPoint, nI)
			for j := 0; j < nI; j++ {
				ops[j] = backend.Scalar(omega, cfg.TEC.MaxCurrent*float64(j)/float64(nI-1))
			}
			results, err := sys.EvaluateBatchContext(ctx, nil, ops, nil)
			if err != nil {
				return err
			}
			for j, res := range results {
				out[i*nI+j] = surfacePoint(omega, ops[j].Currents[0], res)
			}
			return nil
		}
		// Per-point reference path: the converged field at each point
		// warm-starts the next I step; the carry never crosses rows.
		var warm []float64
		for j := 0; j < nI; j++ {
			itec := cfg.TEC.MaxCurrent * float64(j) / float64(nI-1)
			res, err := sys.EvaluateContext(ctx, nil, backend.Scalar(omega, itec), warm)
			if err != nil {
				return err
			}
			if !res.Runaway {
				warm = res.T
			}
			out[i*nI+j] = surfacePoint(omega, itec, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// surfacePoint converts one steady-state result into its surface sample.
func surfacePoint(omega, itec float64, res *thermal.Result) SurfacePoint {
	p := SurfacePoint{Omega: omega, ITEC: itec, Runaway: res.Runaway}
	if res.Runaway {
		p.MaxTemp = math.Inf(1)
		p.Power = math.Inf(1)
	} else {
		p.MaxTemp = res.MaxChipTemp
		p.Power = res.CoolingPower()
	}
	return p
}

// WriteSurfaceCSV emits a surface as CSV with the same axes as Figure 6.
func WriteSurfaceCSV(w io.Writer, pts []SurfacePoint) error {
	if _, err := fmt.Fprintln(w, "omega_rad_s,omega_rpm,i_tec_a,max_temp_c,cooling_power_w,runaway"); err != nil {
		return err
	}
	for _, p := range pts {
		tempC, pow := "inf", "inf"
		if !p.Runaway {
			tempC = fmt.Sprintf("%.3f", units.KToC(p.MaxTemp))
			pow = fmt.Sprintf("%.3f", p.Power)
		}
		if _, err := fmt.Fprintf(w, "%.3f,%.1f,%.3f,%s,%s,%t\n",
			p.Omega, units.RadPerSecToRPM(p.Omega), p.ITEC, tempC, pow, p.Runaway); err != nil {
			return err
		}
	}
	return nil
}

// MethodResult is one bar of Figure 6(c)-(f): one benchmark under one
// cooling method.
type MethodResult struct {
	Benchmark string
	Mode      core.Mode
	Feasible  bool
	// MaxTempC is the maximum chip temperature in °C (+Inf on runaway).
	MaxTempC float64
	// PowerW is the cooling power 𝒫 in watts (+Inf on runaway).
	PowerW float64
	// OmegaRPM and ITEC are the chosen operating point.
	OmegaRPM, ITEC float64
	// Runtime is the controller's wall-clock time.
	Runtime time.Duration
}

// modes compared in Figure 6(c)-(f).
var compareModes = []core.Mode{core.ModeHybrid, core.ModeVariableFan, core.ModeFixedFan}

func (s Setup) runAll(opts core.Options) ([]MethodResult, error) {
	// One task per benchmark (each builds its own model, so tasks share
	// nothing); the mode loop stays inside the task so all three modes
	// reuse that benchmark's evaluation cache. The benchmarks are the one
	// level of fan-out: each run probes its derivatives serially.
	opts.Workers = 1
	perBench := make([][]MethodResult, len(s.Benchmarks))
	err := parallel.ForEach(context.Background(), len(s.Benchmarks), 0, func(i int) error {
		b := s.Benchmarks[i]
		sys, err := s.system(b)
		if err != nil {
			return err
		}
		results := make([]MethodResult, 0, len(compareModes))
		for _, mode := range compareModes {
			o := opts
			o.Mode = mode
			res, err := sys.Run(o)
			if err != nil {
				return fmt.Errorf("experiments: %s/%s: %w", b.Name, mode, err)
			}
			results = append(results, toMethodResult(b.Name, res))
		}
		perBench[i] = results
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []MethodResult
	for _, results := range perBench {
		out = append(out, results...)
	}
	return out, nil
}

func toMethodResult(bench string, o *core.Outcome) MethodResult {
	mr := MethodResult{
		Benchmark: bench,
		Mode:      o.Mode,
		Feasible:  o.Feasible,
		OmegaRPM:  units.RadPerSecToRPM(o.Omega),
		ITEC:      o.ITEC,
		Runtime:   o.Runtime,
		MaxTempC:  math.Inf(1),
		PowerW:    math.Inf(1),
	}
	if o.Result != nil && !o.Result.Runaway {
		mr.MaxTempC = units.KToC(o.Result.MaxChipTemp)
		mr.PowerW = o.Result.CoolingPower()
	}
	return mr
}

// Opt2Series generates Figure 6(c) and (d): every benchmark × method,
// solving Optimization 2 (minimize the maximum chip temperature) to
// convergence.
func Opt2Series(s Setup) ([]MethodResult, error) {
	return s.runAll(core.Options{SkipOpt1: true})
}

// Opt1Series generates Figure 6(e) and (f) and Table 2: every benchmark ×
// method, running full Algorithm 1.
func Opt1Series(s Setup) ([]MethodResult, error) {
	return s.runAll(core.Options{})
}

// TECOnlySeries demonstrates that a TEC-only system cannot avoid thermal
// runaway on any benchmark (Section 6.2).
func TECOnlySeries(s Setup) ([]MethodResult, error) {
	out := make([]MethodResult, len(s.Benchmarks))
	err := parallel.ForEach(context.Background(), len(s.Benchmarks), 0, func(i int) error {
		sys, err := s.system(s.Benchmarks[i])
		if err != nil {
			return err
		}
		res, err := sys.Run(core.Options{Mode: core.ModeTECOnly, Workers: 1})
		if err != nil {
			return err
		}
		out[i] = toMethodResult(s.Benchmarks[i].Name, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Benchmark string
	ITEC      float64 // A
	OmegaRPM  float64
	Runtime   time.Duration
}

// Table2 runs OFTEC (Algorithm 1) per benchmark and reports the optimal
// operating points and runtimes.
func Table2(s Setup) ([]Table2Row, error) {
	rows := make([]Table2Row, len(s.Benchmarks))
	err := parallel.ForEach(context.Background(), len(s.Benchmarks), 0, func(i int) error {
		b := s.Benchmarks[i]
		sys, err := s.system(b)
		if err != nil {
			return err
		}
		out, err := sys.Run(core.Options{Mode: core.ModeHybrid, Workers: 1})
		if err != nil {
			return err
		}
		rows[i] = Table2Row{
			Benchmark: b.Name,
			ITEC:      out.ITEC,
			OmegaRPM:  units.RadPerSecToRPM(out.Omega),
			Runtime:   out.Runtime,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SolverRow is one line of the Section 5.2 solver comparison.
type SolverRow struct {
	Method core.Method
	// Gradient marks rows where the method was steered by adjoint
	// gradients (core.Options.Gradient) instead of finite differences.
	Gradient bool
	Feasible bool
	PowerW   float64
	Runtime  time.Duration
	// FuncEvals totals objective/constraint evaluations across both
	// optimization phases.
	FuncEvals int
	// GradEvals totals adjoint gradient evaluations across both phases
	// (zero on finite-difference rows).
	GradEvals int
	// Converged and Stopped report the Optimization 1 solve's verdict
	// (see solver.Report); a method can land on a feasible point without
	// a convergence claim, which the paper's table would otherwise hide.
	Converged bool
	Stopped   solver.StopReason
}

// SolverComparison runs Algorithm 1 on one benchmark with each NLP method
// the paper compared (active-set SQP, interior point, and trust region;
// it chose SQP). Each method appears twice: once on finite differences
// and once steered by adjoint gradients, so the table shows what the
// exact derivatives buy each of them.
func SolverComparison(s Setup, benchName string) ([]SolverRow, error) {
	sys, err := s.System(benchName)
	if err != nil {
		return nil, err
	}
	methods := []struct {
		m    core.Method
		grad bool
	}{
		{core.MethodSQP, false}, {core.MethodSQP, true},
		{core.MethodInteriorPoint, false}, {core.MethodInteriorPoint, true},
		{core.MethodTrustRegion, false}, {core.MethodTrustRegion, true},
	}
	var rows []SolverRow
	for _, mc := range methods {
		out, err := sys.Run(core.Options{Mode: core.ModeHybrid, Method: mc.m, Gradient: mc.grad})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SolverRow{
			Method:    mc.m,
			Gradient:  mc.grad,
			Feasible:  out.Feasible,
			PowerW:    out.CoolingPower(),
			Runtime:   out.Runtime,
			FuncEvals: out.Opt1Report.FuncEvals + out.Opt2Report.FuncEvals,
			GradEvals: out.Opt1Report.GradEvals + out.Opt2Report.GradEvals,
			Converged: out.Opt1Report.Converged,
			Stopped:   out.Opt1Report.Stopped,
		})
	}
	return rows, nil
}

// Summary aggregates the paper's headline claims from an Opt1 series.
type Summary struct {
	// OFTECFeasible / VarFeasible / FixedFeasible count benchmarks each
	// method could cool below T_max.
	OFTECFeasible, VarFeasible, FixedFeasible int
	// Comparable lists benchmarks where OFTEC and both baselines are
	// feasible (the paper's three mild benchmarks).
	Comparable []string
	// AvgPowerSavingVsVar / AvgPowerSavingVsFixed are mean relative 𝒫
	// savings of OFTEC on the comparable benchmarks, in percent.
	AvgPowerSavingVsVar, AvgPowerSavingVsFixed float64
	// AvgTempReductionVsVar / AvgTempReductionVsFixed are mean peak-
	// temperature reductions on the comparable benchmarks, in °C.
	AvgTempReductionVsVar, AvgTempReductionVsFixed float64
}

// Summarize computes the Section 6.2 aggregate claims from an Opt1 series.
func Summarize(series []MethodResult) Summary {
	byBench := map[string]map[core.Mode]MethodResult{}
	for _, r := range series {
		if byBench[r.Benchmark] == nil {
			byBench[r.Benchmark] = map[core.Mode]MethodResult{}
		}
		byBench[r.Benchmark][r.Mode] = r
	}
	var sum Summary
	var dPVar, dPFixed, dTVar, dTFixed float64
	for _, name := range workload.Names {
		m, ok := byBench[name]
		if !ok {
			continue
		}
		of, va, fx := m[core.ModeHybrid], m[core.ModeVariableFan], m[core.ModeFixedFan]
		if of.Feasible {
			sum.OFTECFeasible++
		}
		if va.Feasible {
			sum.VarFeasible++
		}
		if fx.Feasible {
			sum.FixedFeasible++
		}
		if of.Feasible && va.Feasible && fx.Feasible {
			sum.Comparable = append(sum.Comparable, name)
			dPVar += (va.PowerW - of.PowerW) / va.PowerW * 100
			dPFixed += (fx.PowerW - of.PowerW) / fx.PowerW * 100
			dTVar += va.MaxTempC - of.MaxTempC
			dTFixed += fx.MaxTempC - of.MaxTempC
		}
	}
	if n := float64(len(sum.Comparable)); n > 0 {
		sum.AvgPowerSavingVsVar = dPVar / n
		sum.AvgPowerSavingVsFixed = dPFixed / n
		sum.AvgTempReductionVsVar = dTVar / n
		sum.AvgTempReductionVsFixed = dTFixed / n
	}
	return sum
}

// Opt2PowerDigits is the number of digits after the point that an
// Optimization-2 row fixes in 𝒫. OFTEC's optimum is flat in I, which it
// fixes only to about 1e-4 A, so its 𝒫 is known to about ±0.01 W: whole
// watts. The baselines run at I = 0 with ω at a bound or fixed, so their
// 𝒫 keeps two digits.
func Opt2PowerDigits(m MethodResult) int {
	if m.Mode == core.ModeHybrid {
		return 0
	}
	return 2
}

// Opt1PowerDigits is the number of digits after the point that an
// Optimization-1 row fixes in 𝒫, which that optimization minimizes: two.
func Opt1PowerDigits(MethodResult) int { return 2 }

// WriteSeriesTable renders a method-result series as an aligned text table,
// with powerDigits(r) digits after the point in row r's 𝒫 cell
// (Opt2PowerDigits or Opt1PowerDigits).
func WriteSeriesTable(w io.Writer, title string, series []MethodResult, powerDigits func(MethodResult) int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmethod\tfeasible\tTmax(°C)\t𝒫(W)\tω*(RPM)\tI*(A)\truntime")
	for _, r := range series {
		temp, pow := "runaway", "runaway"
		if !math.IsInf(r.MaxTempC, 1) {
			temp = fmt.Sprintf("%.2f", r.MaxTempC)
			pow = fmt.Sprintf("%.*f", powerDigits(r), r.PowerW)
		}
		fmt.Fprintf(tw, "%s\t%s\t%t\t%s\t%s\t%.0f\t%.2f\t%s\n",
			r.Benchmark, r.Mode, r.Feasible, temp, pow, r.OmegaRPM, r.ITEC,
			r.Runtime.Round(time.Millisecond))
	}
	return tw.Flush()
}

// WriteTable2 renders Table 2 in the paper's layout.
func WriteTable2(w io.Writer, rows []Table2Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tI*_TEC (A)\tω* (RPM)\tRuntime (ms)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.0f\t%d\n",
			r.Benchmark, r.ITEC, r.OmegaRPM, r.Runtime.Milliseconds())
	}
	return tw.Flush()
}

// WriteTable1 echoes the model's layer geometry in the format of Table 1,
// so the configured package can be compared against the paper directly.
func WriteTable1(w io.Writer, cfg thermal.Config) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Layer\tThermal Conductivity (W/(m·K))\tDimensions")
	row := func(name string, spec thermal.LayerSpec) {
		fmt.Fprintf(tw, "%s\t%g\t%.1fmm×%.1fmm×%s\n", name,
			spec.Material.Conductivity, spec.Edge*1e3, spec.Edge*1e3, thickness(spec.Thickness))
	}
	row("Chip", cfg.Chip)
	row("TIM 1", cfg.TIM1)
	row("Heat spreader", cfg.Spreader)
	row("TIM 2", cfg.TIM2)
	row("Heat sink", cfg.Sink)
	return tw.Flush()
}

func thickness(t float64) string {
	if t < 1e-3 {
		return fmt.Sprintf("%.0fµm", t*1e6)
	}
	return fmt.Sprintf("%gmm", t*1e3)
}
