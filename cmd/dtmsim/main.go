// Command dtmsim runs a closed-loop dynamic-thermal-management simulation:
// a synthetic benchmark phase trace drives the transient thermal model
// while a runtime policy (the paper's LUT controller, the online OFTEC
// re-planner, the reference [5] threshold/hysteresis TEC controllers, a
// PI fan loop, or a static operating point) actuates the fan and the
// TECs.
//
// Usage:
//
//	dtmsim [-bench Quicksort]
//	       [-ctrl lut|oftec-online|oftec-static|threshold|hysteresis|pifan|static]
//	       [-duration 2] [-dt 0.01] [-ctrlperiod 0.05] [-res 12] [-csv out.csv]
//
// With -csv the full trace (time, temperature, actuation, power terms) is
// written; the summary always goes to stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"oftec/internal/backend"
	"oftec/internal/controller"
	"oftec/internal/coolant"
	"oftec/internal/core"
	"oftec/internal/power"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtmsim: ")

	var (
		bench       = flag.String("bench", "Quicksort", "benchmark workload")
		ctrlName    = flag.String("ctrl", "lut", "policy: lut, threshold, hysteresis, pifan, static, oftec-static, oftec-online")
		duration    = flag.Float64("duration", 2.0, "simulated seconds")
		dt          = flag.Float64("dt", 0.01, "plant integration step (s)")
		ctrlPeriod  = flag.Float64("ctrlperiod", 0.05, "controller sampling period (s)")
		res         = flag.Int("res", 12, "chip-layer grid resolution")
		backendName = flag.String("backend", "", "evaluation backend: "+strings.Join(backend.Names(), ", ")+" (default full)")
		coolantName = flag.String("coolant", "", "cooling actuator: air (default, the paper's fan), liquid, liquid-dc, liquid-package")
		csvPath     = flag.String("csv", "", "write the detailed trace as CSV")
	)
	flag.Parse()

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

	cfg := thermal.DefaultConfig()
	cfg.Coolant = coolantSpec
	cfg.ChipRes = *res
	b, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	peak, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		log.Fatal(err)
	}
	plant, err := backend.New(*backendName, cfg, peak)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := b.Trace(cfg.Floorplan, *duration, (*dt)/2)
	if err != nil {
		log.Fatal(err)
	}

	ctrl, setupTime, err := buildController(*ctrlName, plant, peak, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy %s on %s (%.1f W peak), %gs at dt=%gs (controller setup %v)\n",
		ctrl.Name(), b.Name, peak.Total(), *duration, *dt, setupTime.Round(time.Millisecond))

	detail, err := controller.TraceSimulate(plant, ctrl, trace, *duration, *dt, *ctrlPeriod, false)
	if err != nil {
		// A step past the runaway temperature stops the run
		// (thermal.ErrRunaway).
		log.Fatalf("policy %s: %v", ctrl.Name(), err)
	}
	sum := controller.Summarize(detail, units.KToC(cfg.TMax))
	fmt.Printf("  peak temp       %.2f °C (T_max %.1f °C)\n", sum.PeakTempC, units.KToC(cfg.TMax))
	fmt.Printf("  mean temp       %.2f °C\n", sum.MeanTempC)
	fmt.Printf("  violation time  %.3f s (%.1f%% of the run)\n", sum.ViolationTime, 100*sum.ViolationTime/sum.Duration)
	fmt.Printf("  mean 𝒫          %.2f W (%.1f J over the run)\n", sum.MeanCoolingW, sum.CoolingEnergyJ)
	fmt.Printf("  TEC switches    %d\n", sum.TECTransitions)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(f, "time_s,max_temp_c,omega_rpm,i_tec_a,dynamic_w,leakage_w,tec_w,fan_w")
		for _, p := range detail {
			fmt.Fprintf(f, "%.4f,%.3f,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
				p.Time, p.MaxTempC, units.RadPerSecToRPM(p.Omega), p.ITEC,
				p.DynamicW, p.LeakageW, p.TECW, p.FanW)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  trace written   %s (%d samples)\n", *csvPath, len(detail))
	}
}

// buildController constructs the requested policy; LUT and oftec-static
// run OFTEC offline first, which is included in the reported setup time.
func buildController(name string, plant backend.Plant, peak power.Map, cfg thermal.Config) (controller.Controller, time.Duration, error) {
	start := time.Now()
	switch name {
	case "static":
		return &controller.Static{Omega: units.RPMToRadPerSec(2000)}, 0, nil
	case "threshold":
		return &controller.Threshold{
			Omega: units.RPMToRadPerSec(2800), IOn: 2,
			TOn: cfg.TMax - 4,
		}, 0, nil
	case "hysteresis":
		return &controller.Hysteresis{
			Omega: units.RPMToRadPerSec(2800), IOn: 2,
			THigh: cfg.TMax - 3, TLow: cfg.TMax - 8,
		}, 0, nil
	case "pifan":
		c := &controller.PIFan{
			Setpoint: cfg.TMax - 5,
			Kp:       25, Ki: 6,
			OmegaMin: 15, OmegaMax: cfg.UMax(),
		}
		if err := c.Validate(); err != nil {
			return nil, 0, err
		}
		return c, 0, nil
	case "oftec-static":
		sys := core.NewSystem(plant)
		out, err := sys.Run(core.Options{Mode: core.ModeHybrid})
		if err != nil {
			return nil, 0, err
		}
		if !out.Feasible {
			return nil, 0, fmt.Errorf("OFTEC found no feasible operating point")
		}
		return &controller.Static{Omega: out.Omega, ITEC: out.ITEC}, time.Since(start), nil
	case "oftec-online":
		c := &controller.OFTECOnline{Plant: plant, ReplanPeriod: 0.25}
		if err := c.Validate(); err != nil {
			return nil, 0, err
		}
		return c, 0, nil
	case "lut":
		sys := core.NewSystem(plant)
		// Level ladder around the workload's peak power (Section 6.2's
		// "classify the input dynamic power vector to categories").
		total := peak.Total()
		levels := []float64{0.5 * total, 0.7 * total, 0.85 * total, total}
		lut, err := controller.BuildLUT(sys, peak, levels, core.Options{})
		if err != nil {
			return nil, 0, err
		}
		return &lutPolicy{lut: lut, plant: plant}, time.Since(start), nil
	default:
		return nil, 0, fmt.Errorf("unknown controller %q", name)
	}
}

// lutPolicy serves precomputed OFTEC solutions keyed by the chip's current
// total dynamic power — a power-sensor-driven controller. TraceSimulate
// updates the plant's workload every step, so reading it back is the
// sensor.
type lutPolicy struct {
	lut   *controller.LUT
	plant backend.Plant
}

// Name implements controller.Controller.
func (c *lutPolicy) Name() string { return "oftec-lut" }

// Act implements controller.Controller.
func (c *lutPolicy) Act(t, maxChipTemp float64) (float64, float64) {
	return c.lut.Lookup(c.plant.DynamicPowerTotal())
}
