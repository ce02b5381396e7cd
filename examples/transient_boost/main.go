// Transient TEC boost: bridging the controller latency with the Peltier
// effect's fast response.
//
// Section 6.2 of the paper notes that OFTEC takes ~0.4 s to produce a new
// operating point, and suggests (after ref [8]) driving the TECs roughly
// 1 A above the steady optimum for about a second while the optimization
// runs: the Peltier cooling appears immediately, while the extra Joule
// heat arrives only with the stack's thermal time constant.
//
// This example applies a step load (idle → Quicksort) and compares three
// policies over the first two seconds:
//
//	hold:   keep yesterday's operating point until OFTEC answers
//	boost:  same, plus +1 A of TEC current for the first second
//	oracle: jump straight to the new OFTEC optimum (zero-latency bound)
//
//	go run ./examples/transient_boost
package main

import (
	"fmt"
	"log"

	"oftec/internal/backend"
	"oftec/internal/controller"
	"oftec/internal/core"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

func main() {
	log.SetFlags(0)

	cfg := thermal.DefaultConfig()
	idle, err := workload.ByName("CRC32") // stands in for the pre-step load
	if err != nil {
		log.Fatal(err)
	}
	heavy, err := workload.ByName("Quicksort")
	if err != nil {
		log.Fatal(err)
	}

	// Steady state and OFTEC optimum under the idle load.
	idleMap, err := idle.PowerMap(cfg.Floorplan)
	if err != nil {
		log.Fatal(err)
	}
	model, err := thermal.NewModel(cfg, idleMap)
	if err != nil {
		log.Fatal(err)
	}
	sys := core.NewSystem(backend.NewFull(model))
	before, err := sys.Run(core.Options{Mode: core.ModeHybrid})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-step optimum (CRC32):    ω=%4.0f RPM, I=%.2f A, Tmax=%.1f °C\n",
		units.RadPerSecToRPM(before.Omega), before.ITEC, units.KToC(before.Result.MaxChipTemp))
	initState := append([]float64(nil), before.Result.T...)

	// The step: the heavy load arrives. Compute where OFTEC will
	// eventually settle (this is what takes ~0.3 s of solver time).
	heavyMap, err := heavy.PowerMap(cfg.Floorplan)
	if err != nil {
		log.Fatal(err)
	}
	if err := model.SetDynamicPower(heavyMap); err != nil {
		log.Fatal(err)
	}
	sysHeavy := core.NewSystem(backend.NewFull(model))
	after, err := sysHeavy.Run(core.Options{Mode: core.ModeHybrid})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-step optimum (Quicksort): ω=%4.0f RPM, I=%.2f A, Tmax=%.1f °C  (solver took %v)\n\n",
		units.RadPerSecToRPM(after.Omega), after.ITEC, units.KToC(after.Result.MaxChipTemp), after.Runtime)

	policies := []struct {
		name string
		ctrl controller.Controller
	}{
		{"hold old point", &controller.Static{Omega: before.Omega, ITEC: before.ITEC}},
		{"hold + 1 A boost (1 s)", &controller.Boost{
			BaseOmega: before.Omega, BaseITEC: before.ITEC, DeltaI: 1, Duration: 1,
		}},
		{"boost, then new optimum", &boostThenSwitch{
			boost: controller.Boost{BaseOmega: before.Omega, BaseITEC: before.ITEC, DeltaI: 1, Duration: 1},
			next:  controller.Static{Omega: after.Omega, ITEC: after.ITEC},
		}},
		{"oracle (no latency)", &controller.Static{Omega: after.Omega, ITEC: after.ITEC}},
	}

	fmt.Println("first 2 s after the step (heavy load, starting from the idle field):")
	for _, p := range policies {
		trace, err := simulateFrom(model, p.ctrl, initState, 2.0, 0.05)
		if err != nil {
			// A step past the runaway temperature stops the run
			// (thermal.ErrRunaway).
			log.Fatalf("%s: %v", p.name, err)
		}
		at := func(tt float64) float64 {
			best := trace[0]
			for _, pt := range trace {
				if pt.Time <= tt {
					best = pt
				}
			}
			return best.MaxTempC
		}
		fmt.Printf("  %-24s T(0.5s)=%6.2f °C  T(1s)=%6.2f °C  T(2s)=%6.2f °C  peak=%6.2f °C\n",
			p.name, at(0.5), at(1), at(2), controller.PeakTemp(trace))
	}

	fmt.Println("\nThe boost tracks the zero-latency oracle during the solver window and")
	fmt.Println("relaxes to the steady optimum afterwards — the paper's suggested bridge.")
}

// boostThenSwitch over-drives the TECs while the solver runs, then applies
// the freshly computed optimum — the deployment the paper sketches.
type boostThenSwitch struct {
	boost controller.Boost
	next  controller.Static
}

func (c *boostThenSwitch) Name() string { return "boost+switch" }

func (c *boostThenSwitch) Act(t, maxChipTemp float64) (float64, float64) {
	if t < c.boost.Duration {
		return c.boost.Act(t, maxChipTemp)
	}
	return c.next.Act(t, maxChipTemp)
}

// simulateFrom runs a controller from an explicit initial temperature
// field (the pre-step steady state), unlike controller.TraceSimulate,
// which starts from the controller's own steady state or from ambient.
func simulateFrom(m *thermal.Model, ctrl controller.Controller, init []float64, duration, dt float64) ([]controller.TracePoint, error) {
	omega, itec := ctrl.Act(0, 0)
	tr, err := m.NewTransient(omega, itec, init)
	if err != nil {
		return nil, err
	}
	var out []controller.TracePoint
	maxTemp, _ := tr.ChipState()
	for tr.Time() < duration {
		omega, itec = ctrl.Act(tr.Time(), maxTemp)
		if err := tr.SetOperatingPoint(omega, itec); err != nil {
			return nil, err
		}
		maxTemp, err = tr.Step(dt)
		if err != nil {
			return nil, err
		}
		out = append(out, controller.TracePoint{
			Time: tr.Time(), MaxTempC: units.KToC(maxTemp), Omega: omega, ITEC: itec,
		})
	}
	return out, nil
}
