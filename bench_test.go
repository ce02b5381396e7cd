// Package oftec_bench is the benchmark harness that regenerates every
// table and figure of the paper's evaluation section. Each testing.B
// benchmark corresponds to one artifact (see DESIGN.md's experiment
// index); run them all with
//
//	go test -bench=. -benchmem
//
// The series benchmarks report the paper's headline metrics as custom
// benchmark metrics (feasible counts, power savings, peak-temperature
// reductions) so a run doubles as a reproduction check.
package oftec_bench

import (
	"context"
	"math"
	"runtime"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/coolant"
	"oftec/internal/core"
	"oftec/internal/dvfs"
	"oftec/internal/experiments"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// benchSetup is the paper's configuration at the full grid resolution:
// the series benchmarks double as reproduction checks, and the
// feasibility split (8/8 vs 3/8) only matches the paper at full
// resolution (coarser grids smear the Dijkstra and Susan hot spots).
func benchSetup() experiments.Setup {
	return experiments.DefaultSetup()
}

func fullSetup() experiments.Setup { return experiments.DefaultSetup() }

// benchModel digs the underlying physics model out of a system's backend
// for the benchmarks that exercise the model directly (transients, raw
// evaluations) rather than through the decoupled evaluation layer.
func benchModel(b *testing.B, sys *core.System) *thermal.Model {
	b.Helper()
	m, ok := backend.ModelOf(sys.Backend())
	if !ok {
		b.Fatalf("backend %q exposes no underlying model", sys.Backend().Name())
	}
	return m
}

// BenchmarkFig6aSurface regenerates the maximum-die-temperature surface
// 𝒯(ω, I_TEC) of Figure 6(a) for Basicmath.
func BenchmarkFig6aSurface(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SurfaceContext(context.Background(), setup, "Basicmath", 20, 11, 0)
		if err != nil {
			b.Fatal(err)
		}
		runaway := 0
		for _, p := range pts {
			if p.Runaway {
				runaway++
			}
		}
		if runaway == 0 {
			b.Fatal("surface lost its runaway wall")
		}
		b.ReportMetric(float64(runaway), "runaway-pts")
	}
}

// BenchmarkFig6bSurface regenerates the cooling-power surface 𝒫(ω, I_TEC)
// of Figure 6(b); it shares the evaluation with Figure 6(a), so this
// benchmark additionally verifies that the 𝒫 minimum sits near the origin
// while the 𝒯 minimum is interior (the paper's observation that the two
// problems have different optima).
func BenchmarkFig6bSurface(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SurfaceContext(context.Background(), setup, "Basicmath", 20, 11, 0)
		if err != nil {
			b.Fatal(err)
		}
		minP, minT := pts[0], pts[0]
		for _, p := range pts {
			if p.Runaway {
				continue
			}
			if minP.Runaway || p.Power < minP.Power {
				minP = p
			}
			if minT.Runaway || p.MaxTemp < minT.MaxTemp {
				minT = p
			}
		}
		if minP.Omega >= minT.Omega {
			b.Fatalf("𝒫 minimum (ω=%g) should sit at lower fan speed than the 𝒯 minimum (ω=%g)",
				minP.Omega, minT.Omega)
		}
		b.ReportMetric(minP.Power, "minP-W")
	}
}

// BenchmarkSurfaceGrid measures the parallel fan-out engine on the
// Figure 6 grid shape (40×40 = 1600 independent operating points) against
// the serial reference path, at reduced thermal resolution so one
// iteration stays in benchmark territory. Every sweep builds a
// fresh system, so both variants run cold-cache and the comparison is
// pure fan-out: at GOMAXPROCS ≥ 4 the parallel variant is expected to be
// ≥ 2× faster in wall-clock, with byte-identical output (asserted by
// TestSurfaceParallelMatchesSerial; the sanity checks here only guard the
// surface shape). On a single-CPU host the two variants time alike.
func BenchmarkSurfaceGrid(b *testing.B) {
	setup := experiments.FastSetup()
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := setup.System("Basicmath")
				if err != nil {
					b.Fatal(err)
				}
				// Per-point reference path: this benchmark isolates the
				// fan-out engine; the batched path has its own benchmark.
				sys = core.NewSystem(perPointBackend{sys.Backend()})
				b.StartTimer()
				pts, err := experiments.SurfaceSystem(context.Background(), sys, 40, 40, bc.workers)
				if err != nil {
					b.Fatal(err)
				}
				checkSurfaceShape(b, pts)
			}
		})
	}
}

// perPointBackend hides the wrapped backend's BatchEvaluator capability,
// so a System built on it sweeps through the per-point carry path.
type perPointBackend struct{ backend.Evaluator }

func checkSurfaceShape(b *testing.B, pts []experiments.SurfacePoint) {
	b.Helper()
	runaway := 0
	for _, p := range pts {
		if p.Runaway {
			runaway++
		}
	}
	if runaway == 0 || runaway == len(pts) {
		b.Fatalf("surface shape broken: %d/%d runaway", runaway, len(pts))
	}
}

// BenchmarkSurfaceGridBatched is the headline comparison for the blocked
// multi-RHS engine: the cold 40×40 Figure 6 sweep, serial, once through
// the per-point reference path and once with whole ω-rows submitted as
// batches (one assembly per row, width-8 blocked CG under the shared
// slice factorization). Each iteration builds a fresh system outside the
// timer so both variants run cold-cache and the ratio is pure evaluation
// engine. scripts/bench.sh records perpoint/batched in
// BENCH_evaluate.json.
//
// On the measured ratio: the per-point path finishes each point's ω-slice
// factorization from the network's shared prefix, a few µs next to its
// CG, and the batch contract replicates per-point CG bit-for-bit, which
// pins per-column iteration counts to per-point counts. What batching
// buys is the per-iteration pattern walk amortized over eight columns,
// and one slice factorization per group instead of one per point — a
// constant factor, not an algorithmic-order win. BENCH_evaluate.json's
// batched_surface records the ratio of the medians and each leg's spread.
func BenchmarkSurfaceGridBatched(b *testing.B) {
	setup := experiments.FastSetup()
	for _, bc := range []struct {
		name    string
		batched bool
	}{
		{"perpoint", false},
		{"batched", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := setup.System("Basicmath")
				if err != nil {
					b.Fatal(err)
				}
				if !bc.batched {
					sys = core.NewSystem(perPointBackend{sys.Backend()})
				}
				b.StartTimer()
				pts, err := experiments.SurfaceSystem(context.Background(), sys, 40, 40, 1)
				if err != nil {
					b.Fatal(err)
				}
				checkSurfaceShape(b, pts)
			}
		})
	}
}

// BenchmarkROMBuild measures what oftecd's model pool pays the first
// time a ROM-backed chip is requested: each iteration builds a fresh
// Model (a hit on the shared network cache, but with an empty result
// memo) and then the reduced model over it, so every snapshot and
// validation solve runs.
func BenchmarkROMBuild(b *testing.B) {
	setup := experiments.FastSetup()
	bench, err := workload.ByName("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	pm, err := bench.PowerMap(setup.Config.Floorplan)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the network cache, so even a 1x run times only memo-cold builds.
	if _, err := thermal.NewModel(setup.Config, pm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := thermal.NewModel(setup.Config, pm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := thermal.NewReducedModel(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6cOpt2 regenerates Figure 6(c): maximum chip temperature
// after Optimization 2 for all benchmarks and methods. (Figure 6(d)'s
// power column comes from the same runs.)
func BenchmarkFig6cOpt2(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		series, err := experiments.Opt2Series(setup)
		if err != nil {
			b.Fatal(err)
		}
		reportOpt2Metrics(b, series)
	}
}

func reportOpt2Metrics(b *testing.B, series []experiments.MethodResult) {
	b.Helper()
	// OFTEC's average temperature advantage over the variable-ω baseline
	// (the paper reports >13 °C).
	byBench := map[string]map[core.Mode]experiments.MethodResult{}
	for _, r := range series {
		if byBench[r.Benchmark] == nil {
			byBench[r.Benchmark] = map[core.Mode]experiments.MethodResult{}
		}
		byBench[r.Benchmark][r.Mode] = r
	}
	var dT float64
	var n int
	for _, m := range byBench {
		of, va := m[core.ModeHybrid], m[core.ModeVariableFan]
		if math.IsInf(of.MaxTempC, 1) || math.IsInf(va.MaxTempC, 1) {
			continue
		}
		dT += va.MaxTempC - of.MaxTempC
		n++
	}
	if n > 0 {
		b.ReportMetric(dT/float64(n), "ΔT-vs-var-°C")
	}
}

// BenchmarkFig6eOpt1 regenerates Figure 6(e)/(f): Algorithm 1 across all
// benchmarks and methods, reporting the aggregate Section 6.2 claims.
func BenchmarkFig6eOpt1(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		series, err := experiments.Opt1Series(setup)
		if err != nil {
			b.Fatal(err)
		}
		sum := experiments.Summarize(series)
		if sum.OFTECFeasible != 8 {
			b.Fatalf("OFTEC feasible on %d/8", sum.OFTECFeasible)
		}
		if sum.VarFeasible != 3 {
			b.Fatalf("variable-ω baseline feasible on %d/8, want 3 (paper shape)", sum.VarFeasible)
		}
		b.ReportMetric(float64(sum.OFTECFeasible), "oftec-feasible")
		b.ReportMetric(float64(sum.VarFeasible), "var-feasible")
		b.ReportMetric(sum.AvgPowerSavingVsVar, "ΔP-vs-var-%")
		b.ReportMetric(sum.AvgTempReductionVsVar, "ΔT-vs-var-°C")
	}
}

// BenchmarkTable2OFTEC regenerates Table 2: one sub-benchmark per MiBench
// benchmark, timing the full OFTEC run (Algorithm 1) at the paper's full
// grid resolution — the analogue of Table 2's runtime column.
func BenchmarkTable2OFTEC(b *testing.B) {
	setup := fullSetup()
	for _, name := range workload.Names {
		b.Run(name, func(b *testing.B) {
			sysProto, err := setup.System(name)
			if err != nil {
				b.Fatal(err)
			}
			_ = sysProto
			b.ResetTimer()
			var itec float64
			for i := 0; i < b.N; i++ {
				// Fresh system per iteration: Table 2 times a cold solve.
				sys, err := setup.System(name)
				if err != nil {
					b.Fatal(err)
				}
				out, err := sys.Run(core.Options{Mode: core.ModeHybrid})
				if err != nil {
					b.Fatal(err)
				}
				if !out.Feasible {
					b.Fatalf("%s infeasible", name)
				}
				itec = out.ITEC
			}
			b.ReportMetric(itec, "I*-A")
		})
	}
}

// BenchmarkTECOnlyRunaway regenerates the Section 6.2 demonstration that a
// TEC-only system (ω = 0) cannot avoid thermal runaway.
func BenchmarkTECOnlyRunaway(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		series, err := experiments.TECOnlySeries(setup)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range series {
			if r.Feasible {
				b.Fatalf("%s: TEC-only unexpectedly feasible", r.Benchmark)
			}
		}
	}
}

// BenchmarkSolverComparison reproduces the Section 5.2 experiment: the
// paper tried interior-point, trust-region, and active-set SQP and chose
// SQP for quality and speed. One sub-benchmark per method.
func BenchmarkSolverComparison(b *testing.B) {
	setup := benchSetup()
	for _, m := range []core.Method{
		core.MethodSQP, core.MethodInteriorPoint, core.MethodTrustRegion,
	} {
		b.Run(m.String(), func(b *testing.B) {
			var pw float64
			for i := 0; i < b.N; i++ {
				sys, err := setup.System("Basicmath")
				if err != nil {
					b.Fatal(err)
				}
				out, err := sys.Run(core.Options{Mode: core.ModeHybrid, Method: m})
				if err != nil {
					b.Fatal(err)
				}
				if !out.Feasible {
					b.Fatal("infeasible")
				}
				pw = out.CoolingPower()
			}
			b.ReportMetric(pw, "𝒫-W")
		})
	}
}

// BenchmarkTransientBoost times one fresh Section 6.2 transient-boost
// integration on Quicksort at 2500 RPM: a new Transient from the ambient
// field, 1 s of 50 ms backward-Euler steps at the boosted 2 A, then 1 s
// at 1 A. A Transient owns its step factor, so each iteration pays both
// factorizations, one per operating point. scripts/bench.sh records it
// as transient_boost in BENCH_evaluate.json.
func BenchmarkTransientBoost(b *testing.B) {
	setup := benchSetup()
	sys, err := setup.System("Quicksort")
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, sys)
	omega := units.RPMToRadPerSec(2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := m.NewTransient(omega, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		for tr.Time() < 1.0 {
			if _, err := tr.Step(0.05); err != nil {
				b.Fatal(err)
			}
		}
		if err := tr.SetOperatingPoint(omega, 1); err != nil {
			b.Fatal(err)
		}
		for tr.Time() < 2.0 {
			if _, err := tr.Step(0.05); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvaluate is the hot-path trajectory benchmark: one linearized
// steady-state evaluation (constraint (14)) at the paper's full
// resolution, cycling a small set of operating points the way an
// optimizer's line searches revisit a neighborhood. scripts/bench.sh
// records its ns/op, allocs/op, and CG iteration count in
// BENCH_evaluate.json so successive PRs can be compared.
func BenchmarkEvaluate(b *testing.B) {
	setup := fullSetup()
	sys, err := setup.System("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, sys)
	var iters int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		omega := 220 + 25*float64(i%8)
		itec := 1 + 0.2*float64(i%4)
		res, err := m.Evaluate(omega, itec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runaway {
			b.Fatal("unexpected runaway")
		}
		iters = res.SolveStats.Iterations
	}
	b.ReportMetric(float64(iters), "cg-iters")
}

// BenchmarkEvaluateExact is the EvaluateExact-heavy trajectory benchmark:
// the fixed-point iteration with exact exponential leakage, whose system
// matrix is identical across outer iterations.
func BenchmarkEvaluateExact(b *testing.B) {
	setup := fullSetup()
	sys, err := setup.System("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, sys)
	var outer, iters int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		omega := 240 + 20*float64(i%4)
		res, err := m.EvaluateExact(omega, 1.2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runaway {
			b.Fatal("unexpected runaway")
		}
		outer = res.OuterIterations
		iters = res.SolveStats.Iterations
	}
	b.ReportMetric(float64(outer), "outer-iters")
	b.ReportMetric(float64(iters), "cg-iters")
}

// BenchmarkEvaluateCold measures the fresh-solve cost: every iteration
// uses a distinct operating point, so the result memo misses and the
// whole pipeline runs: assembly, the ω-slice's IC(0) factorization
// finished from the network's prefix, and preconditioned CG. Together with BenchmarkEvaluate (the repeated-point
// pattern) this brackets the hot path: memo hit at the floor, cold solve
// at the ceiling.
func BenchmarkEvaluateCold(b *testing.B) {
	setup := fullSetup()
	sys, err := setup.System("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, sys)
	var iters int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		omega := 220 + 1e-4*float64(i)
		res, err := m.Evaluate(omega, 1.2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runaway {
			b.Fatal("unexpected runaway")
		}
		iters = res.SolveStats.Iterations
	}
	b.ReportMetric(float64(iters), "cg-iters")
}

// BenchmarkROMEvaluate measures the reduced-order fast path on the same
// distinct-point pattern as BenchmarkEvaluateCold: every iteration is a
// fresh in-hull operating point, so neither the model's result memo nor
// the evaluation cache can answer, and the timing is the ROM's projected
// dense solve plus its residual-based error estimate. scripts/bench.sh
// records the ROM/cold-full ratio in BENCH_backend.json; the acceptance
// bar is ≥ 10× over BenchmarkEvaluateCold.
func BenchmarkROMEvaluate(b *testing.B) {
	setup := fullSetup()
	setup.Backend = "rom"
	sys, err := setup.System("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	ev := sys.Backend()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		omega := 220 + 1e-4*float64(i)
		res, err := ev.Evaluate(context.Background(), backend.Scalar(omega, 1.2), nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runaway {
			b.Fatal("unexpected runaway")
		}
	}
}

// BenchmarkEvaluateExactCold is the fresh-solve cost of the exact
// fixed-point path: distinct operating points defeat the result memo, so
// each iteration pays the full outer loop (with its one shared
// factorization and warm-started inner solves).
func BenchmarkEvaluateExactCold(b *testing.B) {
	setup := fullSetup()
	sys, err := setup.System("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, sys)
	var outer int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		omega := 240 + 1e-4*float64(i)
		res, err := m.EvaluateExact(omega, 1.2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runaway {
			b.Fatal("unexpected runaway")
		}
		outer = res.OuterIterations
	}
	b.ReportMetric(float64(outer), "outer-iters")
}

// BenchmarkSteadyStateSolve is the micro-benchmark under everything above:
// one assembly + sparse solve of constraint (14) at the paper's full
// resolution (the cost of a single objective evaluation).
func BenchmarkSteadyStateSolve(b *testing.B) {
	setup := fullSetup()
	sys, err := setup.System("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the operating point so the system's cache never hits.
		omega := 200 + float64(i%97)
		res, err := m.Evaluate(omega, 1+float64(i%5)/10)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runaway {
			b.Fatal("unexpected runaway")
		}
	}
}

// BenchmarkAblationLeakageModel compares the one-solve Taylor-linearized
// evaluation (what OFTEC uses, after ref [13]) against the fixed-point
// iteration with exact exponential leakage — the speedup that motivates
// Equation (4).
func BenchmarkAblationLeakageModel(b *testing.B) {
	setup := benchSetup()
	sys, err := setup.System("Basicmath")
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, sys)
	b.Run("linearized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Evaluate(250+float64(i%13), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-fixed-point", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			res, err := m.EvaluateExact(250+float64(i%13), 1)
			if err != nil {
				b.Fatal(err)
			}
			iters = res.OuterIterations
		}
		b.ReportMetric(float64(iters), "outer-iters")
	})
}

// BenchmarkAblationGridResolution sweeps the chip-grid resolution — the
// accuracy/cost knob Section 4 discusses ("increasing the number of these
// elements increases the accuracy ... and makes the analysis slow").
func BenchmarkAblationGridResolution(b *testing.B) {
	for _, res := range []int{8, 12, 16, 24} {
		b.Run(benchName(res), func(b *testing.B) {
			cfg := thermal.DefaultConfig()
			cfg.ChipRes = res
			setup := experiments.Setup{Config: cfg, Benchmarks: workload.All()}
			sys, err := setup.System("Quicksort")
			if err != nil {
				b.Fatal(err)
			}
			m := benchModel(b, sys)
			var tmax float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := m.Evaluate(262+float64(i%7), 2)
				if err != nil {
					b.Fatal(err)
				}
				tmax = r.MaxChipTemp
			}
			b.ReportMetric(units.KToC(tmax), "Tmax-°C")
			b.ReportMetric(float64(m.NumNodes()), "nodes")
		})
	}
}

func benchName(res int) string {
	switch res {
	case 8:
		return "chip8x8"
	case 12:
		return "chip12x12"
	case 16:
		return "chip16x16"
	case 24:
		return "chip24x24"
	}
	return "chip"
}

// BenchmarkQPSubproblem isolates the active-set QP kernel inside the SQP.
func BenchmarkQPSubproblem(b *testing.B) {
	p := &solver.Problem{
		F: func(x []float64) float64 {
			return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
		},
		Cons: []solver.Func{
			func(x []float64) float64 { return x[0] + x[1] - 2 },
		},
		Lower: []float64{-5, -5},
		Upper: []float64{5, 5},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.ActiveSetSQP(p, []float64{0, 0}, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZonedControlAblation compares the paper's single series string
// (one shared current) against the zoned extension (one current per
// cluster): the k = 1 case is a restriction of the zoned space, so the
// reported per-variant 𝒫 quantifies what finer current control buys.
func BenchmarkZonedControlAblation(b *testing.B) {
	setup := benchSetup()
	b.Run("uniform-current", func(b *testing.B) {
		var pw float64
		for i := 0; i < b.N; i++ {
			sys, err := setup.System("Quicksort")
			if err != nil {
				b.Fatal(err)
			}
			out, err := sys.Run(core.Options{Mode: core.ModeHybrid})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Feasible {
				b.Fatal("infeasible")
			}
			pw = out.CoolingPower()
		}
		b.ReportMetric(pw, "𝒫-W")
	})
	b.Run("three-zones", func(b *testing.B) {
		var pw float64
		for i := 0; i < b.N; i++ {
			sys, err := setup.System("Quicksort")
			if err != nil {
				b.Fatal(err)
			}
			assign, n := core.ClusterZones()
			z, err := benchModel(b, sys).NewZoning(assign, n)
			if err != nil {
				b.Fatal(err)
			}
			out, err := sys.RunZoned(z, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Feasible {
				b.Fatal("infeasible")
			}
			pw = out.CoolingPower()
		}
		b.ReportMetric(pw, "𝒫-W")
	})
}

// BenchmarkGradVsFD times the zoned k=8 Algorithm 1 run (9 decision
// variables, 2(1+k) finite-difference probes per derivative) with the
// SQP driven by finite differences versus by adjoint gradients. Both legs
// build a fresh system per iteration so the evaluation cache starts cold,
// and both report the solver's function-evaluation, gradient and
// iteration counts; scripts/bench.sh records them in BENCH_evaluate.json.
// At k=8 SQP stops at its start point (RunZoned's k ≤ 6 caveat), so the
// legs measure the cost of one derivative of both functions at x0 (the
// finite-difference leg's 3 + 2·2·9 = 39 evaluations against the adjoint
// leg's 3 and one adjoint pair), not the cost of an optimization.
func BenchmarkGradVsFD(b *testing.B) {
	setup := experiments.FastSetup()
	for _, bc := range []struct {
		name string
		grad bool
	}{
		{"fd", false},
		{"grad", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var evals, grads, iters, pw float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := setup.System("Basicmath")
				if err != nil {
					b.Fatal(err)
				}
				z, err := benchModel(b, sys).SpreadZoning(8)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				out, err := sys.RunZoned(z, core.Options{Mode: core.ModeHybrid, Gradient: bc.grad})
				if err != nil {
					b.Fatal(err)
				}
				if !out.Feasible {
					b.Fatal("infeasible")
				}
				evals = float64(out.Report.FuncEvals + out.Opt2Report.FuncEvals)
				grads = float64(out.Report.GradEvals + out.Opt2Report.GradEvals)
				iters = float64(out.Report.Iterations + out.Opt2Report.Iterations)
				pw = out.CoolingPower()
			}
			b.ReportMetric(evals, "func-evals")
			b.ReportMetric(grads, "grad-evals")
			b.ReportMetric(iters, "solver-iters")
			b.ReportMetric(pw, "𝒫-W")
		})
	}
}

// BenchmarkThrottlingFallback times the Section 6.2 DVFS comparison: how
// far the fan-only baseline must throttle on the suite, which OFTEC
// avoids entirely.
func BenchmarkThrottlingFallback(b *testing.B) {
	setup := fullSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ThrottlingSeries(setup, dvfs.Default())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		throttled := 0
		for _, r := range rows {
			if r.PerformanceLoss > 0 {
				throttled++
			}
			if r.PerformanceLoss > worst {
				worst = r.PerformanceLoss
			}
			if !r.OFTECFeasible {
				b.Fatalf("%s: OFTEC infeasible", r.Benchmark)
			}
		}
		b.ReportMetric(float64(throttled), "benchmarks-throttled")
		b.ReportMetric(worst*100, "worst-loss-%")
	}
}

// BenchmarkParetoFront traces the cooling-power vs. peak-temperature
// trade-off curve Algorithm 1 navigates.
func BenchmarkParetoFront(b *testing.B) {
	setup := benchSetup()
	thresholds := []float64{
		units.CToK(95), units.CToK(92), units.CToK(90), units.CToK(88), units.CToK(86),
	}
	for i := 0; i < b.N; i++ {
		sys, err := setup.System("Quicksort")
		if err != nil {
			b.Fatal(err)
		}
		front, err := sys.ParetoFront(thresholds, core.Options{Mode: core.ModeHybrid})
		if err != nil {
			b.Fatal(err)
		}
		feasible := 0
		for _, p := range front {
			if p.Feasible {
				feasible++
			}
		}
		b.ReportMetric(float64(feasible), "feasible-pts")
	}
}

// BenchmarkSeebeckSensitivity sweeps the thermoelectric material quality
// (the lever Section 3's device research pushes): at zero Seebeck the
// hybrid system degenerates to the fan-only baseline.
func BenchmarkSeebeckSensitivity(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SeebeckSensitivity(setup, "Quicksort", []float64{0.5, 1, 1.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SeebeckScale >= 1 && !r.Feasible {
				b.Fatalf("scale %.2f infeasible", r.SeebeckScale)
			}
		}
		b.ReportMetric(rows[1].PowerW, "𝒫-nominal-W")
	}
}

// BenchmarkCoverageStudy reruns the refs [6][7] deployment comparison.
func BenchmarkCoverageStudy(b *testing.B) {
	setup := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CoverageStudy(setup, "Quicksort")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].TECPowerW, "paper-deploy-TEC-W")
		b.ReportMetric(rows[2].TECPowerW, "spot-deploy-TEC-W")
	}
}

// BenchmarkCoolantPower is the coolant-seam headline: the full OFTEC run
// (Algorithm 1, SQP with adjoint gradients) on the same floorplan under
// the paper's air actuator versus the liquid cold-plate loop, each leg
// reporting the optimized cooling power 𝒫 and the chosen actuator
// command. scripts/bench.sh records both legs and their ratio as
// coolant_liquid_vs_air in BENCH_backend.json — the measured answer to
// "what does switching the deployment to liquid buy at the optimum".
func BenchmarkCoolantPower(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec *coolant.Spec
	}{
		{"air", nil},
		{"liquid", &coolant.Spec{Kind: coolant.KindLiquid}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			setup := benchSetup()
			setup.Config.Coolant = bc.spec
			var pw, u float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := setup.System("Basicmath")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				out, err := sys.Run(core.Options{Mode: core.ModeHybrid, Gradient: true})
				if err != nil {
					b.Fatal(err)
				}
				if !out.Feasible {
					b.Fatal("infeasible")
				}
				pw = out.CoolingPower()
				u = out.Omega
			}
			b.ReportMetric(pw, "watts")
			b.ReportMetric(u, "u-rad_per_s")
		})
	}
}
