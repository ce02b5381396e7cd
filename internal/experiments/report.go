package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"oftec/internal/core"
	"oftec/internal/workload"
)

// Report bundles one full reproduction run: everything cmd/benchtable
// computes, in one structure, so it can be rendered or asserted on as a
// unit.
type Report struct {
	Opt2, Opt1 []MethodResult
	TECOnly    []MethodResult
	Table2     []Table2Row
	Solvers    []SolverRow
	Summary    Summary
	// SolverBenchmark names the benchmark the solver comparison ran on.
	SolverBenchmark string
}

// RunReport executes the complete evaluation (all tables and figure
// series) for a setup. This is the expensive whole-paper run; use the
// individual generators for single artifacts.
func RunReport(s Setup, solverBench string) (*Report, error) {
	r := &Report{SolverBenchmark: solverBench}
	var err error
	if r.Opt2, err = Opt2Series(s); err != nil {
		return nil, err
	}
	if r.Opt1, err = Opt1Series(s); err != nil {
		return nil, err
	}
	if r.TECOnly, err = TECOnlySeries(s); err != nil {
		return nil, err
	}
	if r.Table2, err = Table2(s); err != nil {
		return nil, err
	}
	if r.Solvers, err = SolverComparison(s, solverBench); err != nil {
		return nil, err
	}
	r.Summary = Summarize(r.Opt1)
	return r, nil
}

// WriteMarkdown renders the report as a self-contained markdown document
// mirroring the paper's evaluation section, with the paper's own numbers
// alongside for comparison.
func (r *Report) WriteMarkdown(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	// cell prints v with prec digits after the point.
	cell := func(v float64, prec int) string {
		if math.IsInf(v, 1) {
			return "runaway"
		}
		return fmt.Sprintf("%.*f", prec, v)
	}

	if err := p("# OFTEC reproduction report\n\n"); err != nil {
		return err
	}

	if err := p("## Figure 6(c)/(d) — after Optimization 2 (minimize max temperature)\n\n" +
		"| benchmark | method | Tmax (°C) | 𝒫 (W) | ω* (RPM) | I* (A) |\n|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, m := range r.Opt2 {
		if err := p("| %s | %s | %s | %s | %.0f | %.2f |\n",
			m.Benchmark, m.Mode, cell(m.MaxTempC, 2), cell(m.PowerW, Opt2PowerDigits(m)), m.OmegaRPM, m.ITEC); err != nil {
			return err
		}
	}

	if err := p("\n## Figure 6(e)/(f) — after Optimization 1 (Algorithm 1)\n\n" +
		"| benchmark | method | feasible | Tmax (°C) | 𝒫 (W) | ω* (RPM) | I* (A) |\n|---|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, m := range r.Opt1 {
		if err := p("| %s | %s | %t | %s | %s | %.0f | %.2f |\n",
			m.Benchmark, m.Mode, m.Feasible, cell(m.MaxTempC, 2), cell(m.PowerW, Opt1PowerDigits(m)), m.OmegaRPM, m.ITEC); err != nil {
			return err
		}
	}

	if err := p("\n## Table 2 — OFTEC operating points and runtimes\n\n" +
		"| benchmark | I*_TEC (A) | ω* (RPM) | runtime |\n|---|---|---|---|\n"); err != nil {
		return err
	}
	var total time.Duration
	for _, row := range r.Table2 {
		total += row.Runtime
		if err := p("| %s | %.2f | %.0f | %v |\n",
			row.Benchmark, row.ITEC, row.OmegaRPM, row.Runtime.Round(time.Millisecond)); err != nil {
			return err
		}
	}
	if len(r.Table2) > 0 {
		if err := p("\nAverage runtime %v (paper: 437 ms).\n",
			(total / time.Duration(len(r.Table2))).Round(time.Millisecond)); err != nil {
			return err
		}
	}

	if err := p("\n## TEC-only system (Section 6.2)\n\n"); err != nil {
		return err
	}
	if err := p("Thermal runaway on %d/%d benchmarks (paper: all).\n", countRunaway(r.TECOnly), len(r.TECOnly)); err != nil {
		return err
	}

	if err := p("\n## Solver comparison on %s (Section 5.2)\n\n"+
		"| method | gradients | feasible | 𝒫 (W) | runtime | evaluations | ∇-evaluations |\n|---|---|---|---|---|---|---|\n", r.SolverBenchmark); err != nil {
		return err
	}
	for _, s := range r.Solvers {
		grad := "finite-diff"
		if s.Gradient {
			grad = "adjoint"
		}
		if err := p("| %s | %s | %t | %.2f | %v | %d | %d |\n",
			s.Method, grad, s.Feasible, s.PowerW, s.Runtime.Round(time.Millisecond), s.FuncEvals, s.GradEvals); err != nil {
			return err
		}
	}

	sum := r.Summary
	return p("\n## Aggregate claims (Section 6.2)\n\n"+
		"* OFTEC feasible on **%d/%d** benchmarks (paper: 8/8)\n"+
		"* variable-ω baseline on %d, fixed-ω on %d (paper: 3 each)\n"+
		"* average 𝒫 saving on the comparable set: **%.1f%%** vs variable ω (paper: 2.6%%), **%.1f%%** vs fixed ω (paper: 8.1%%)\n"+
		"* average peak-temperature reduction: **%.1f °C** vs variable ω (paper: 3.7), **%.1f °C** vs fixed ω (paper: 3.0)\n",
		sum.OFTECFeasible, len(workload.Names), sum.VarFeasible, sum.FixedFeasible,
		sum.AvgPowerSavingVsVar, sum.AvgPowerSavingVsFixed,
		sum.AvgTempReductionVsVar, sum.AvgTempReductionVsFixed)
}

func countRunaway(series []MethodResult) int {
	n := 0
	for _, m := range series {
		if m.Mode == core.ModeTECOnly && math.IsInf(m.MaxTempC, 1) {
			n++
		}
	}
	return n
}
