// Command sweep regenerates the objective-function surfaces of Figure
// 6(a) (maximum die temperature 𝒯) and Figure 6(b) (cooling power 𝒫) for
// one benchmark, emitting CSV with one row per (ω, I_TEC) grid point.
// Runaway operating points (the dark-red region of the figures) are
// reported as "inf".
//
// Usage:
//
//	sweep [-bench Basicmath] [-backend full] [-nomega 40] [-ni 26] [-res 16] [-parallel 0]
//	      [-timeout 5m] [-o out.csv]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Grid points are independent steady-state solves and are fanned out
// across -parallel workers (0 sizes the pool to GOMAXPROCS, 1 forces the
// serial reference path); the CSV is identical for any width. -timeout
// bounds the whole sweep: on expiry it exits nonzero without partial CSV
// (rows complete out of order, so a partial surface would have holes).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"oftec/internal/backend"
	"oftec/internal/coolant"
	"oftec/internal/experiments"
	"oftec/internal/profiling"
	"oftec/internal/thermal"
	"oftec/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	var (
		bench       = flag.String("bench", "Basicmath", "benchmark name (the paper plots Basicmath)")
		backendName = flag.String("backend", "", "evaluation backend: "+strings.Join(backend.Names(), ", ")+" (default full; rom serves coarse passes fast)")
		coolantName = flag.String("coolant", "", "cooling actuator: "+strings.Join(coolant.Names(), ", ")+" (default air, the paper's fan)")
		nOmega      = flag.Int("nomega", 40, "grid points along the ω axis")
		nI          = flag.Int("ni", 26, "grid points along the I_TEC axis")
		res         = flag.Int("res", 16, "chip-layer grid resolution")
		par         = flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
		timeout     = flag.Duration("timeout", 0, "bound the whole sweep; on expiry exit nonzero (0 = none)")
		out         = flag.String("o", "", "output file (default stdout)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile on exit to this file")
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
	// Profiles are finalized on the normal exit paths; a log.Fatal above
	// abandons them, which is fine — there is nothing worth profiling in a
	// run that failed to start.
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	cfg := thermal.DefaultConfig()
	cfg.ChipRes = *res
	cfg.Coolant = coolantSpec
	setup := experiments.Setup{Config: cfg, Benchmarks: workload.All(), Backend: *backendName}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	pts, err := experiments.SurfaceContext(ctx, setup, *bench, *nOmega, *nI, *par)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := experiments.WriteSurfaceCSV(w, pts); err != nil {
		log.Fatal(err)
	}

	// Report the qualitative features the paper highlights. The minima are
	// tracked over non-runaway points only: seeding from pts[0] would
	// report a runaway corner as a "basin" whenever the whole grid (or
	// just the first point's neighborhood) is in runaway.
	var runaway int
	minT, minP := -1, -1
	for k, p := range pts {
		if p.Runaway {
			runaway++
			continue
		}
		if minT < 0 || p.MaxTemp < pts[minT].MaxTemp {
			minT = k
		}
		if minP < 0 || p.Power < pts[minP].Power {
			minP = k
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d/%d grid points in thermal runaway (low-ω wall)\n", runaway, len(pts))
	if minT < 0 {
		fmt.Fprintf(os.Stderr, "sweep: every grid point is in thermal runaway — no basin to report; extend the ω range or raise the grid resolution\n")
		return
	}
	fmt.Fprintf(os.Stderr, "sweep: min 𝒯 at ω=%.0f rad/s, I=%.2f A (interior basin, cf. Fig. 6(a))\n", pts[minT].Omega, pts[minT].ITEC)
	fmt.Fprintf(os.Stderr, "sweep: min 𝒫 at ω=%.0f rad/s, I=%.2f A (near the origin, cf. Fig. 6(b))\n", pts[minP].Omega, pts[minP].ITEC)
}
