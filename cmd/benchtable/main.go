// Command benchtable reproduces the paper's evaluation artifacts:
//
//	-exp table1    echo the package configuration (Table 1)
//	-exp table2    OFTEC operating points and runtimes (Table 2)
//	-exp fig6c     max chip temperature after Optimization 2 (Figure 6(c))
//	-exp fig6d     cooling power after Optimization 2 (Figure 6(d))
//	-exp fig6e     max chip temperature after Optimization 1 (Figure 6(e))
//	-exp fig6f     cooling power after Optimization 1 (Figure 6(f))
//	-exp teconly   TEC-only thermal-runaway demonstration (Section 6.2)
//	-exp solvers   NLP method comparison (Section 5.2)
//	-exp throttle  DVFS-throttling fallback comparison (Section 6.2)
//	-exp sensitivity  TEC material-quality (Seebeck) ablation
//	-exp coverage  TEC deployment-coverage ablation (refs [6][7])
//	-exp summary   aggregate Section 6.2 claims
//	-exp all       everything above
//
// Figures 6(c)/(d) and 6(e)/(f) derive from the same runs, so the
// corresponding experiments print both the temperature and power columns.
// With -md FILE the complete evaluation runs once and is written as a
// self-contained markdown report instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"oftec/internal/dvfs"
	"oftec/internal/experiments"
	"oftec/internal/thermal"
	"oftec/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtable: ")

	var (
		exp    = flag.String("exp", "all", "experiment: table1, table2, fig6c, fig6d, fig6e, fig6f, teconly, solvers, throttle, sensitivity, coverage, summary, all")
		res    = flag.Int("res", 16, "chip-layer grid resolution")
		bench  = flag.String("bench", "Basicmath", "benchmark for the solver comparison and ablations")
		mdPath = flag.String("md", "", "run the complete evaluation and write a markdown report to this file")
	)
	flag.Parse()

	cfg := thermal.DefaultConfig()
	cfg.ChipRes = *res
	setup := experiments.Setup{Config: cfg, Benchmarks: workload.All()}

	if *mdPath != "" {
		report, err := experiments.RunReport(setup, *bench)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*mdPath)
		if err != nil {
			log.Fatal(err)
		}
		err = report.WriteMarkdown(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote full reproduction report to %s\n", *mdPath)
		return
	}

	want := func(names ...string) bool {
		if *exp == "all" {
			return true
		}
		for _, n := range names {
			if *exp == n {
				return true
			}
		}
		return false
	}
	ran := false

	if want("table1") {
		ran = true
		fmt.Println("== Table 1: thermal conductivity and dimensions of package layers ==")
		if err := experiments.WriteTable1(os.Stdout, cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	var opt1 []experiments.MethodResult
	if want("fig6e", "fig6f", "summary", "table2") {
		var err error
		opt1, err = experiments.Opt1Series(setup)
		if err != nil {
			log.Fatal(err)
		}
	}

	if want("fig6c", "fig6d") {
		ran = true
		series, err := experiments.Opt2Series(setup)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteSeriesTable(os.Stdout,
			"== Figure 6(c)/(d): after Optimization 2 (minimum max temperature) ==", series,
			experiments.Opt2PowerDigits); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if want("fig6e", "fig6f") {
		ran = true
		if err := experiments.WriteSeriesTable(os.Stdout,
			"== Figure 6(e)/(f): after Optimization 1 (minimum cooling power, Algorithm 1) ==", opt1,
			experiments.Opt1PowerDigits); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if want("table2") {
		ran = true
		fmt.Println("== Table 2: results of OFTEC for MiBench benchmarks ==")
		rows, err := experiments.Table2(setup)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteTable2(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		var total time.Duration
		slowest := time.Duration(0)
		for _, r := range rows {
			total += r.Runtime
			if r.Runtime > slowest {
				slowest = r.Runtime
			}
		}
		fmt.Printf("average runtime %v, slowest %v (paper: 437 ms avg, 693 ms slowest)\n\n",
			(total / time.Duration(len(rows))).Round(time.Millisecond), slowest.Round(time.Millisecond))
	}

	if want("teconly") {
		ran = true
		fmt.Println("== Section 6.2: TEC-only system (ω = 0) ==")
		series, err := experiments.TECOnlySeries(setup)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range series {
			status := "thermal runaway"
			if !math.IsInf(r.MaxTempC, 1) {
				status = fmt.Sprintf("Tmax %.1f °C", r.MaxTempC)
			}
			fmt.Printf("  %-13s %s\n", r.Benchmark, status)
		}
		fmt.Println()
	}

	if want("solvers") {
		ran = true
		fmt.Printf("== Section 5.2: NLP method comparison on %s ==\n", *bench)
		rows, err := experiments.SolverComparison(setup, *bench)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			grad := "finite-diff"
			if r.Gradient {
				grad = "adjoint"
			}
			fmt.Printf("  %-16s %-11s feasible=%-5t 𝒫=%.2f W  runtime=%-8v evals=%-6d grads=%-4d converged=%-5t stopped=%s\n",
				r.Method, grad, r.Feasible, r.PowerW, r.Runtime.Round(time.Millisecond), r.FuncEvals,
				r.GradEvals, r.Converged, r.Stopped)
		}
		fmt.Println()
	}

	if want("throttle") {
		ran = true
		fmt.Println("== Section 6.2 fallback: DVFS throttling needed by the fan-only baseline ==")
		rows, err := experiments.ThrottlingSeries(setup, dvfs.Default())
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteThrottleTable(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if want("sensitivity") {
		ran = true
		rows, err := experiments.SeebeckSensitivity(setup, *bench, []float64{0, 0.5, 0.75, 1, 1.25, 1.5})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== Ablation: TEC material quality (Seebeck coefficient sweep) ==")
		if err := experiments.WriteSensitivityTable(os.Stdout, *bench, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if want("coverage") {
		ran = true
		rows, err := experiments.CoverageStudy(setup, *bench)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== Ablation: TEC deployment coverage (refs [6][7]) ==")
		if err := experiments.WriteCoverageTable(os.Stdout, *bench, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if want("summary") {
		ran = true
		sum := experiments.Summarize(opt1)
		fmt.Println("== Section 6.2 aggregate claims ==")
		fmt.Printf("  OFTEC meets T_max on %d/8 benchmarks (paper: 8/8)\n", sum.OFTECFeasible)
		fmt.Printf("  variable-ω baseline on %d/8, fixed-ω baseline on %d/8 (paper: 3/8 each)\n",
			sum.VarFeasible, sum.FixedFeasible)
		fmt.Printf("  comparable benchmarks: %s\n", strings.Join(sum.Comparable, ", "))
		fmt.Printf("  avg 𝒫 saving: %.1f%% vs variable ω (paper: 2.6%%), %.1f%% vs fixed ω (paper: 8.1%%)\n",
			sum.AvgPowerSavingVsVar, sum.AvgPowerSavingVsFixed)
		fmt.Printf("  avg peak-temp reduction: %.1f °C vs variable ω (paper: 3.7), %.1f °C vs fixed ω (paper: 3.0)\n",
			sum.AvgTempReductionVsVar, sum.AvgTempReductionVsFixed)
	}

	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
}
