package controller

import (
	"context"
	"errors"
	"math"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/power"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

func TestTraceSimulateFollowsWorkloadPhases(t *testing.T) {
	m := testModel(t, "Quicksort")
	b, err := workload.ByName("Quicksort")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(m.Config().Floorplan, 0.5, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &Static{Omega: units.RPMToRadPerSec(3000), ITEC: 1}
	trace, err := TraceSimulate(m, ctrl, tr, 0.5, 0.01, 0.05, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// The dynamic power must vary over time (phases) and never exceed the
	// benchmark's peak budget.
	var minDyn, maxDyn = math.Inf(1), 0.0
	for _, p := range trace {
		minDyn = math.Min(minDyn, p.DynamicW)
		maxDyn = math.Max(maxDyn, p.DynamicW)
		if p.DynamicW > b.TotalPower+1e-6 {
			t.Fatalf("instantaneous power %g exceeds budget %g", p.DynamicW, b.TotalPower)
		}
		if p.LeakageW <= 0 || p.FanW <= 0 || p.TECW <= 0 {
			t.Fatalf("power accounting missing at t=%g: %+v", p.Time, p)
		}
	}
	if maxDyn-minDyn < 1 {
		t.Errorf("dynamic power barely varies: [%g, %g]", minDyn, maxDyn)
	}
	// Temperatures under a phase trace must stay below the all-units-at-
	// peak steady state (the trace is never simultaneously at peak).
	maxMap, err := b.PowerMap(m.Config().Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDynamicPower(maxMap); err != nil {
		t.Fatal(err)
	}
	peakSS, err := m.Evaluate(context.Background(), backend.Scalar(units.RPMToRadPerSec(3000), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trace {
		if p.MaxTempC > units.KToC(peakSS.MaxChipTemp)+0.5 {
			t.Fatalf("trace temperature %g exceeds max-power steady state %g",
				p.MaxTempC, units.KToC(peakSS.MaxChipTemp))
		}
	}
}

func TestTraceSimulateValidation(t *testing.T) {
	m := testModel(t, "CRC32")
	b, err := workload.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(m.Config().Floorplan, 0.2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &Static{Omega: 100}
	if _, err := TraceSimulate(m, ctrl, tr, 0, 0.01, 0.01, false); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := TraceSimulate(m, ctrl, tr, 1, 0.05, 0.01, false); err == nil {
		t.Error("control period below sim step accepted")
	}
}

// TestTraceSimulateStopsOnRunaway: on a runaway-heavy plant (ambient
// 140 °C, leakage density ×32) started from ambient, the closed loop
// stops at the first step past the runaway temperature and returns its
// error, which wraps thermal.ErrRunaway, instead of a trace of chip
// temperatures above it.
func TestTraceSimulateStopsOnRunaway(t *testing.T) {
	cfg := thermal.DefaultConfig()
	cfg.ChipRes, cfg.SpreaderRes, cfg.SinkRes, cfg.PCBRes = 8, 7, 6, 4
	cfg.Ambient = units.CToK(140)
	cfg.TMax = cfg.Ambient + 45
	cfg.Leakage.P0Density *= 32
	b, err := workload.ByName("Quicksort")
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
	var tr power.Trace
	if err := tr.Append(0, pm); err != nil {
		t.Fatal(err)
	}
	ctrl := &Static{Omega: m.UMax()}
	trace, err := TraceSimulate(backend.NewFull(m), ctrl, &tr, 0.01, 1e-4, 1e-4, true)
	if !errors.Is(err, thermal.ErrRunaway) || trace != nil {
		t.Fatalf("got %d samples and error %v, want none and thermal.ErrRunaway", len(trace), err)
	}
}

func TestSummarize(t *testing.T) {
	trace := []DetailPoint{
		{TracePoint: TracePoint{Time: 1, MaxTempC: 80, ITEC: 0}, LeakageW: 10, FanW: 2},
		{TracePoint: TracePoint{Time: 2, MaxTempC: 95, ITEC: 2}, LeakageW: 12, TECW: 3, FanW: 2},
		{TracePoint: TracePoint{Time: 3, MaxTempC: 85, ITEC: 0}, LeakageW: 11, FanW: 2},
		{TracePoint: TracePoint{Time: 4, MaxTempC: 96, ITEC: 2}, LeakageW: 12, TECW: 3, FanW: 2},
	}
	s := Summarize(trace, 90)
	if s.PeakTempC != 96 {
		t.Errorf("peak %g, want 96", s.PeakTempC)
	}
	if s.Duration != 4 {
		t.Errorf("duration %g, want 4", s.Duration)
	}
	// Samples at 95 and 96 °C each cover 1 s.
	if s.ViolationTime != 2 {
		t.Errorf("violation time %g, want 2", s.ViolationTime)
	}
	if s.TECTransitions != 3 {
		t.Errorf("transitions %d, want 3", s.TECTransitions)
	}
	wantMeanT := (80.0 + 95 + 85 + 96) / 4
	if math.Abs(s.MeanTempC-wantMeanT) > 1e-9 {
		t.Errorf("mean temp %g, want %g", s.MeanTempC, wantMeanT)
	}
	wantEnergy := 12.0 + 17 + 13 + 17
	if math.Abs(s.CoolingEnergyJ-wantEnergy) > 1e-9 {
		t.Errorf("energy %g, want %g", s.CoolingEnergyJ, wantEnergy)
	}
	if math.Abs(s.MeanCoolingW-wantEnergy/4) > 1e-9 {
		t.Errorf("mean cooling %g, want %g", s.MeanCoolingW, wantEnergy/4)
	}
	if empty := Summarize(nil, 90); empty.Duration != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestTraceSimulateControllersCompared(t *testing.T) {
	// Closed loop over a phase trace: the hysteresis controller must
	// switch the TECs less often than the raw threshold controller at
	// a similar mean temperature.
	m := testModel(t, "BitCount")
	b, err := workload.ByName("BitCount")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(m.Config().Floorplan, 1.0, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	omega := units.RPMToRadPerSec(3000)
	tOn := units.CToK(84)

	thTrace, err := TraceSimulate(m, &Threshold{Omega: omega, IOn: 2, TOn: tOn}, tr, 1.0, 0.01, 0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	hyTrace, err := TraceSimulate(m, &Hysteresis{Omega: omega, IOn: 2, THigh: tOn + 1.5, TLow: tOn - 3.5}, tr, 1.0, 0.01, 0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	thSum := Summarize(thTrace, 90)
	hySum := Summarize(hyTrace, 90)
	if thSum.TECTransitions == 0 {
		t.Skip("threshold controller never switched; trace too tame for the comparison")
	}
	if hySum.TECTransitions > thSum.TECTransitions {
		t.Errorf("hysteresis switched more (%d) than threshold (%d)",
			hySum.TECTransitions, thSum.TECTransitions)
	}
}
