package controller

import (
	"context"
	"fmt"
	"math"

	"oftec/internal/backend"
	"oftec/internal/power"
	"oftec/internal/units"
)

// DetailPoint extends TracePoint with instantaneous power accounting for
// trace-driven dynamic-thermal-management studies.
type DetailPoint struct {
	TracePoint
	// DynamicW is the workload's instantaneous dynamic power.
	DynamicW float64
	// LeakageW, TECW, FanW are the instantaneous cooling power terms.
	LeakageW, TECW, FanW float64
}

// CoolingPowerW returns the instantaneous 𝒫.
func (p DetailPoint) CoolingPowerW() float64 { return p.LeakageW + p.TECW + p.FanW }

// TraceSimulate runs a controller against a time-varying workload trace:
// the plant's dynamic power follows the trace under a zero-order hold
// while the controller is sampled every dtCtrl (which must be ≥ dtSim).
// This is the closed-loop DTM experiment the paper's runtime discussion
// anticipates (controllers reacting to PTscalar-style phase behaviour); a
// constant workload is a one-sample trace. The initial state is the
// steady state at the controller's initial action, unless fromAmbient is
// set, in which case the stack starts at ambient. On return the plant's
// workload is left at the trace's first sample. A plant step that fails
// ends the run with its error and no samples; on the thermal plants a
// step past the runaway temperature fails, wrapping thermal.ErrRunaway.
func TraceSimulate(p backend.Plant, ctrl Controller, tr *power.Trace, duration, dtSim, dtCtrl float64, fromAmbient bool) ([]DetailPoint, error) {
	if dtSim <= 0 || dtCtrl < dtSim || duration <= 0 {
		return nil, fmt.Errorf("controller: invalid timing (duration %g, dtSim %g, dtCtrl %g)", duration, dtSim, dtCtrl)
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("controller: empty workload trace")
	}
	first, err := tr.At(0)
	if err != nil {
		return nil, err
	}
	// The plant's workload is left at the trace's first sample on return
	// (the per-unit input cannot be read back out of the plant).
	//lint:ignore errdrop restore-on-defer of a sample the plant accepted
	defer func() { _ = p.SetDynamicPower(first) }()

	if err := p.SetDynamicPower(first); err != nil {
		return nil, err
	}
	omega, itec := ctrl.Act(0, p.Config().Ambient)

	var init []float64
	if !fromAmbient {
		ss, err := p.Evaluate(context.Background(), backend.Scalar(omega, itec), nil)
		if err != nil {
			return nil, err
		}
		if !ss.Runaway {
			init = ss.T
		}
	}
	sim, err := p.NewTransient(omega, itec, init)
	if err != nil {
		return nil, err
	}

	var out []DetailPoint
	maxTemp, _ := sim.ChipState()
	nextCtrl := 0.0
	pcfg := p.Config()
	act, err := pcfg.Actuator()
	if err != nil {
		return nil, err
	}
	for sim.Time() < duration {
		now := sim.Time()
		pm, err := tr.At(now)
		if err != nil {
			return nil, err
		}
		if err := p.SetDynamicPower(pm); err != nil {
			return nil, err
		}
		if now >= nextCtrl {
			omega, itec = ctrl.Act(now, maxTemp)
			if err := sim.SetOperatingPoint(omega, itec); err != nil {
				return nil, err
			}
			nextCtrl += dtCtrl
		}
		maxTemp, err = sim.Step(dtSim)
		if err != nil {
			return nil, err
		}
		leak, tec, err := p.InstantaneousPowers(sim.Temperatures(), itec)
		if err != nil {
			return nil, err
		}
		out = append(out, DetailPoint{
			TracePoint: TracePoint{
				Time:     sim.Time(),
				MaxTempC: units.KToC(maxTemp),
				Omega:    omega,
				ITEC:     itec,
			},
			DynamicW: pm.Total(),
			LeakageW: leak,
			TECW:     tec,
			FanW:     act.Power(omega),
		})
	}
	return out, nil
}

// Summary aggregates a closed-loop run.
type Summary struct {
	Duration  float64
	PeakTempC float64
	MeanTempC float64
	// ViolationTime is the simulated time spent above tMaxC, in seconds.
	ViolationTime float64
	// MeanCoolingW is the time-averaged 𝒫.
	MeanCoolingW float64
	// CoolingEnergyJ is ∫𝒫 dt.
	CoolingEnergyJ float64
	// TECTransitions counts ON/OFF switches of the TEC drive.
	TECTransitions int
}

// Summarize reduces a detailed trace against a thermal limit (°C). The
// limit is taken in Celsius on purpose: the summary mirrors the °C
// figures the paper reports, alongside TracePoint.MaxTempC.
//
//lint:ignore unitsuffix reporting API mirrors the paper's °C figures
func Summarize(trace []DetailPoint, tMaxC float64) Summary {
	var s Summary
	if len(trace) == 0 {
		return s
	}
	s.PeakTempC = math.Inf(-1)
	prevTime := 0.0
	pts := make([]TracePoint, len(trace))
	for i, p := range trace {
		dt := p.Time - prevTime
		prevTime = p.Time
		s.MeanTempC += p.MaxTempC * dt
		s.MeanCoolingW += p.CoolingPowerW() * dt
		if p.MaxTempC > tMaxC {
			s.ViolationTime += dt
		}
		if p.MaxTempC > s.PeakTempC {
			s.PeakTempC = p.MaxTempC
		}
		pts[i] = p.TracePoint
	}
	s.Duration = trace[len(trace)-1].Time
	if s.Duration > 0 {
		s.MeanTempC /= s.Duration
		s.CoolingEnergyJ = s.MeanCoolingW
		s.MeanCoolingW /= s.Duration
	}
	s.TECTransitions = CountTECTransitions(pts)
	return s
}
