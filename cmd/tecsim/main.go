// Command tecsim characterizes a thermoelectric cooler module in
// isolation — the Teculator-style device analysis of reference [8] that
// underlies the system model. It sweeps the driving current and reports
// the classic TEC curves: cold-side heat pumping q̇_c(I), electrical power
// P(I), coefficient of performance COP(I), and the derived figures
// (optimal current, maximum ΔT, figure of merit ZT̄).
//
// Usage:
//
//	tecsim [-tc 75] [-dt 5] [-alpha 1.5e-3] [-r 4e-3] [-k 0.1] [-imax 5] [-n 26] [-csv out.csv]
//
// Parameters default to one 1 mm² module of the deployment used by the
// OFTEC experiments (DESIGN.md §6).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"oftec/internal/tec"
	"oftec/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tecsim: ")

	var (
		tcC   = flag.Float64("tc", 75, "cold-side temperature in °C")
		dT    = flag.Float64("dt", 5, "temperature difference T_h − T_c in K")
		alpha = flag.Float64("alpha", 1.5e-3, "module Seebeck coefficient α in V/K")
		r     = flag.Float64("r", 4e-3, "module electrical resistance R_TEC in Ω")
		k     = flag.Float64("k", 0.1, "module thermal conductance K_TEC in W/K")
		imax  = flag.Float64("imax", 5, "sweep upper current in A")
		n     = flag.Int("n", 26, "sweep points")
		csv   = flag.String("csv", "", "write the sweep as CSV")
	)
	flag.Parse()

	dev := tec.Device{Seebeck: *alpha, Resistance: *r, Conductance: *k, MaxCurrent: *imax}
	if err := dev.Validate(); err != nil {
		log.Fatal(err)
	}
	if *n < 2 {
		log.Fatalf("need at least 2 sweep points, got %d", *n)
	}
	tc := units.CToK(*tcC)
	th := tc + *dT

	fmt.Printf("module: α=%.4g V/K, R=%.4g Ω, K=%.4g W/K at T_c=%.1f °C, ΔT=%.1f K\n",
		dev.Seebeck, dev.Resistance, dev.Conductance, *tcC, *dT)
	fmt.Printf("derived: I_opt=%.2f A (max cooling %.3f W), ΔT_max=%.2f K, ZT̄=%.3f\n\n",
		dev.OptimalCurrent(tc), dev.MaxCooling(tc, *dT), dev.MaxDeltaT(tc),
		dev.FigureOfMerit((tc+th)/2))

	out := os.Stdout
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		out = f
	}
	fmt.Fprintln(out, "i_a,qc_w,qh_w,p_w,cop")
	for i := 0; i < *n; i++ {
		cur := *imax * float64(i) / float64(*n-1)
		qc := dev.ColdSideHeat(tc, *dT, cur)
		qh := dev.HotSideHeat(th, *dT, cur)
		p := dev.Power(*dT, cur)
		fmt.Fprintf(out, "%.4f,%.6f,%.6f,%.6f,%.4f\n", cur, qc, qh, p, dev.COP(tc, *dT, cur))
	}
	if *csv != "" {
		fmt.Printf("sweep written to %s\n", *csv)
	}
}
