// Command oftec runs the OFTEC controller (Algorithm 1 of the paper) on
// one MiBench benchmark and prints the chosen operating point, the
// resulting thermal state, and the cooling power breakdown.
//
// Usage:
//
//	oftec [-bench Basicmath] [-mode oftec|var|fixed|teconly]
//	      [-method sqp|interior|trust] [-opt2] [-exact]
//	      [-grad] [-fallback] [-timeout 30s] [-trace]
//	      [-res 16] [-tmax 90] [-ambient 45]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"oftec/internal/backend"
	"oftec/internal/coolant"
	"oftec/internal/core"
	"oftec/internal/experiments"
	"oftec/internal/profiling"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oftec: ")

	var (
		bench       = flag.String("bench", "Basicmath", "benchmark name (one of "+strings.Join(workload.Names, ", ")+")")
		mode        = flag.String("mode", "oftec", "cooling mode: oftec, var, fixed, teconly")
		method      = flag.String("method", "sqp", "NLP method: sqp, interior, trust")
		backendName = flag.String("backend", "", "evaluation backend: "+strings.Join(backend.Names(), ", ")+" (default full)")
		coolantName = flag.String("coolant", "", "cooling actuator: "+strings.Join(coolant.Names(), ", ")+" (default air, the paper's fan)")
		opt2        = flag.Bool("opt2", false, "solve Optimization 2 only (minimize the maximum temperature)")
		exact       = flag.Bool("exact", false, "verify the result with the exact exponential leakage model")
		grad        = flag.Bool("grad", false, "steer the solver with adjoint gradients (smoothed-max objective) instead of finite differences")

		fallback = flag.Bool("fallback", false, "on non-convergence, retry with the solver fallback chain (method, then sqp → interior)")
		timeout  = flag.Duration("timeout", 0, "bound the whole solve; on expiry the best point found so far is reported (0 = none)")
		trace    = flag.Bool("trace", false, "dump the last per-iteration solver trace records to stderr")
		res      = flag.Int("res", 16, "chip-layer grid resolution (cells per edge)")
		tmaxC    = flag.Float64("tmax", 90, "thermal threshold T_max in °C")
		ambient  = flag.Float64("ambient", 45, "ambient temperature in °C")
		cfgPath  = flag.String("config", "", "load the package configuration from a JSON file (see -saveconfig)")
		cfgDump  = flag.String("saveconfig", "", "write the effective configuration as JSON to this file and exit")
		heatmap  = flag.String("heatmap", "", "write the chip-layer temperature field at the optimum as CSV")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the controller run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile on exit to this file")
	)
	flag.Parse()

	// Reject unknown backend/coolant names before any model setup so a
	// typo fails with the registered list, not a failure deep in assembly.
	if !backend.Known(*backendName) {
		log.Fatalf("unknown backend %q; registered backends: %s", *backendName, strings.Join(backend.Names(), ", "))
	}
	coolantSpec, err := coolant.SpecByName(*coolantName)
	if err != nil {
		log.Fatalf("unknown coolant %q; registered coolants: %s", *coolantName, strings.Join(coolant.Names(), ", "))
	}
	if err := backend.CheckCoolant(*backendName, *coolantName); err != nil {
		log.Fatalf("-backend and -coolant disagree: %v", err)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	// finishProfiles runs on the normal exit paths (including the
	// infeasible os.Exit(2) below); log.Fatal paths abandon the profiles.
	finishProfiles := func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}
	defer finishProfiles()

	cfg := thermal.DefaultConfig()
	if *cfgPath != "" {
		f, err := os.Open(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err = thermal.LoadConfig(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg.ChipRes = *res
		cfg.TMax = units.CToK(*tmaxC)
		cfg.Ambient = units.CToK(*ambient)
	}
	if *coolantName != "" {
		cfg.Coolant = coolantSpec
	}
	if *cfgDump != "" {
		f, err := os.Create(*cfgDump)
		if err != nil {
			log.Fatal(err)
		}
		err = thermal.SaveConfig(f, cfg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote configuration to %s\n", *cfgDump)
		return
	}

	opts := core.Options{SkipOpt1: *opt2, VerifyExact: *exact}
	if opts.Mode, err = core.ParseMode(*mode); err != nil {
		log.Fatal(err)
	}
	if opts.Method, err = core.ParseMethod(*method); err != nil {
		log.Fatal(err)
	}
	opts.Fallback = *fallback
	opts.Gradient = *grad
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Solver.Ctx = ctx
	}
	var ring *solver.TraceRing
	if *trace {
		ring = solver.NewTraceRing(solver.DefaultTraceCapacity)
		opts.Solver.Trace = ring.Record
	}

	setup := experiments.Setup{Config: cfg, Benchmarks: workload.All(), Backend: *backendName}
	sys, err := setup.System(*bench)
	if err != nil {
		log.Fatal(err)
	}
	b, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	m, ok := backend.ModelOf(sys.Backend())
	if !ok {
		log.Fatalf("backend %q exposes no underlying model", sys.Backend().Name())
	}
	fmt.Printf("benchmark    %s — %s\n", b.Name, b.Description)
	fmt.Printf("model        %d nodes, %d TEC modules, %.1f W dynamic power (backend %s)\n",
		m.NumNodes(), m.NumTEC(), m.DynamicPowerTotal(), sys.Backend().Name())
	mcfg := m.Config()
	fmt.Printf("coolant      %s", m.Actuator().Name())
	if n := mcfg.PackageChips(); n > 1 {
		fmt.Printf(" — %d-chip package, per-chip share reported (package totals ×%d)", n, n)
	}
	fmt.Println()
	fmt.Printf("constraints  T_max %.1f °C, u ≤ %.0f RPM, I ≤ %.1f A, ambient %.1f °C\n\n",
		units.KToC(mcfg.TMax), units.RadPerSecToRPM(mcfg.UMax()), mcfg.TEC.MaxCurrent, units.KToC(mcfg.Ambient))

	out, err := sys.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	if ring != nil {
		fmt.Fprintf(os.Stderr, "solver trace (last %d of %d records):\n", len(ring.Records()), ring.Total())
		if err := ring.Dump(os.Stderr); err != nil {
			log.Print(err)
		}
	}
	fmt.Println(out)
	fmt.Printf("  solver verdict      opt2: %s, opt1: %s\n", reportVerdict(out.Opt2Report), reportVerdict(out.Opt1Report))
	if *grad {
		fmt.Printf("  adjoint gradients   opt2: %d, opt1: %d (evaluations: %d + %d)\n",
			out.Opt2Report.GradEvals, out.Opt1Report.GradEvals,
			out.Opt2Report.FuncEvals, out.Opt1Report.FuncEvals)
	}
	if out.Result != nil && !out.Result.Runaway {
		r := out.Result
		fmt.Printf("\n  𝒯 (max chip temp)   %.2f °C\n", units.KToC(r.MaxChipTemp))
		hu, err := m.HottestUnit(r)
		if err == nil {
			fmt.Printf("  hottest unit        %s\n", hu)
		}
		fmt.Printf("  𝒫 (cooling power)   %.2f W = leakage %.2f + TEC %.2f + fan %.2f\n",
			r.CoolingPower(), r.PLeakage, r.PTEC, r.PFan)
		fmt.Printf("  operating point     ω* = %.0f RPM (%.0f rad/s), I*_TEC = %.2f A\n",
			units.RadPerSecToRPM(out.Omega), out.Omega, out.ITEC)
		fmt.Printf("  runtime             %v\n", out.Runtime.Round(time.Millisecond))
	}
	if out.ExactResult != nil {
		if out.ExactResult.Runaway {
			fmt.Println("\n  exact-leakage check: THERMAL RUNAWAY at this operating point")
		} else {
			fmt.Printf("\n  exact-leakage check: 𝒯 = %.2f °C (%d fixed-point iterations)\n",
				units.KToC(out.ExactResult.MaxChipTemp), out.ExactResult.OuterIterations)
		}
	}
	if *heatmap != "" && out.Result != nil && !out.Result.Runaway {
		f, err := os.Create(*heatmap)
		if err != nil {
			log.Fatal(err)
		}
		err = m.WriteHeatmapCSV(f, out.Result, "chip")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n  chip heatmap written to %s\n", *heatmap)
	}
	if !out.Feasible {
		finishProfiles()
		os.Exit(2)
	}
}

// reportVerdict renders a solver report's stop reason, or "not run" for
// the zero Report of a phase Algorithm 1 skipped.
func reportVerdict(rep solver.Report) string {
	if rep.Stopped == solver.StopUnset {
		return "not run"
	}
	return rep.Stopped.String()
}
