package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/dvfs"
	"oftec/internal/parallel"
	"oftec/internal/workload"
)

// ThrottleRow compares OFTEC against the DVFS fallback on one benchmark:
// where the fan-only system cannot meet T_max, Section 6.2 says the chip
// "should be further cooled down using other thermal management
// techniques such as reducing the voltage/frequency ... which leads to
// performance degradation". The row reports how much performance that
// fallback costs — and that OFTEC costs none.
type ThrottleRow struct {
	Benchmark string
	// OFTECFeasible is OFTEC's feasibility at full frequency.
	OFTECFeasible bool
	// BaselineFeasible is the fan-only baseline's feasibility at full
	// frequency (when true, no throttling is needed and FreqScale is 1).
	BaselineFeasible bool
	// FreqScale is the highest fan-only-feasible frequency (0 when even
	// the DVFS floor cannot be cooled).
	FreqScale float64
	// PerformanceLoss is 1 − FreqScale for the throttled baseline.
	PerformanceLoss float64
}

// ThrottlingSeries computes the DVFS comparison for every benchmark in the
// setup, using the variable-speed fan baseline as the cooling system that
// must be rescued by throttling. Benchmarks are independent (each builds
// its own thermal model), so the series fans out across GOMAXPROCS
// workers, each run inside solving with one; rows come back in benchmark
// order.
func ThrottlingSeries(s Setup, model dvfs.Model) ([]ThrottleRow, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	rows := make([]ThrottleRow, len(s.Benchmarks))
	err := parallel.ForEach(context.Background(), len(s.Benchmarks), 0, func(i int) error {
		row, err := throttleOne(s, model, s.Benchmarks[i])
		if err != nil {
			return fmt.Errorf("experiments: throttling %s: %w", s.Benchmarks[i].Name, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func throttleOne(s Setup, model dvfs.Model, b workload.Benchmark) (ThrottleRow, error) {
	base, err := b.PowerMap(s.Config.Floorplan)
	if err != nil {
		return ThrottleRow{}, err
	}
	plant, err := backend.New(s.Backend, s.Config, base)
	if err != nil {
		return ThrottleRow{}, err
	}
	row := ThrottleRow{Benchmark: b.Name}

	// OFTEC at full frequency.
	oftec, err := core.NewSystem(plant).Run(core.Options{Mode: core.ModeHybrid, Workers: 1})
	if err != nil {
		return ThrottleRow{}, err
	}
	row.OFTECFeasible = oftec.Feasible

	// Fan-only feasibility as a function of the DVFS point.
	feasible := func(op dvfs.OperatingPoint) (bool, error) {
		if err := plant.SetDynamicPower(op.ScaleMap(base)); err != nil {
			return false, err
		}
		out, err := core.NewSystem(plant).Run(core.Options{Mode: core.ModeVariableFan, Workers: 1})
		if err != nil {
			return false, err
		}
		return out.Feasible, nil
	}
	op, ok, err := model.MaxFeasibleFrequency(feasible, 0.01)
	if err != nil {
		return ThrottleRow{}, err
	}
	if ok {
		row.FreqScale = op.FreqScale
		row.PerformanceLoss = op.PerformanceLoss()
		row.BaselineFeasible = op.FreqScale >= 1
	}
	return row, nil
}

// WriteThrottleTable renders the comparison.
func WriteThrottleTable(w io.Writer, rows []ThrottleRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tOFTEC\tfan-only @ full clock\tthrottled clock\tperformance lost")
	for _, r := range rows {
		oftec := "meets T_max"
		if !r.OFTECFeasible {
			oftec = "INFEASIBLE"
		}
		base := "meets T_max"
		if !r.BaselineFeasible {
			base = "fails"
		}
		clock := "—"
		loss := "0.0%"
		if r.FreqScale > 0 {
			clock = fmt.Sprintf("%.0f%%", r.FreqScale*100)
			loss = fmt.Sprintf("%.1f%%", r.PerformanceLoss*100)
		} else {
			clock = "none feasible"
			loss = "n/a"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.Benchmark, oftec, base, clock, loss)
	}
	return tw.Flush()
}
