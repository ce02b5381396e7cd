package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/workload"
)

// solveKind selects one of the single-operation-in-flight workloads.
type solveKind int

const (
	kindTable2 solveKind = iota // Algorithm 1, finite differences, paper resolution
	kindZoned8                  // zoned k=8 Algorithm 1 with adjoint gradients
	kindSweep                   // cold 40×40 Figure-6 surface, batched, serial
)

// sweepN is the sweep's grid edge: the Figure-6 40×40 surface.
const sweepN = 40

// solveRunner runs a workload whose every operation builds a fresh
// System for one MiBench benchmark and makes one call into the program:
// core.System.Run, core.System.RunZoned, or experiments.SurfaceSystem.
// One cycle visits the eight benchmarks once, in an order drawn from the
// seed; every cycle repeats that order, so every cycle does the same work.
type solveRunner struct {
	kind  solveKind
	name  string
	setup experiments.Setup
	grid  int // sweep grid edge
	order []string
	refs  references
	next  int64
}

func newSolveRunner(kind solveKind, name string, seed uint64, refs references) *solveRunner {
	setup := experiments.DefaultSetup()
	if kind == kindSweep {
		setup = experiments.FastSetup()
	}
	rng := newRand(seed)
	order := make([]string, len(workload.Names))
	for i, j := range rng.Perm(len(workload.Names)) {
		order[i] = workload.Names[j]
	}
	return &solveRunner{kind: kind, name: name, setup: setup, grid: sweepN, order: order, refs: refs}
}

// warm is the workload's set-up: every benchmark's System is built once
// (power maps, floorplans, model assembly) and one operation runs, so
// lazily built process state exists before the first timed operation.
func (s *solveRunner) warm(ctx context.Context) error {
	for _, name := range s.order {
		if _, err := s.setup.System(name); err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
	}
	first := s.op(ctx, 0, false)
	return first.err
}

func (s *solveRunner) cycle(ctx context.Context, traced bool) ([]opRecord, evalcache.Stats) {
	out := make([]opRecord, 0, len(s.order))
	var cache evalcache.Stats
	for i := range s.order {
		if ctx.Err() != nil {
			out = append(out, opRecord{key: s.order[i], power: math.NaN(), err: ctx.Err()})
			continue
		}
		r := s.op(ctx, i, traced)
		addStats(&cache, r.cache)
		out = append(out, r)
	}
	return out, cache
}

// op runs operation i of a cycle and checks its answer.
func (s *solveRunner) op(ctx context.Context, i int, traced bool) opRecord {
	s.next++
	id := s.next
	name := s.order[i]
	r := opRecord{id: id, key: name, power: math.NaN()}
	setup := s.setup
	if traced {
		setup.Backend = tracePrefix + "full"
	}

	start := time.Now()
	var build active
	if traced {
		build = rec.root(id, spanBuild)
	}
	sys, err := setup.System(name)
	if traced {
		build.finish()
	}
	if err != nil {
		r.err = err
		r.latency = time.Since(start)
		return r
	}

	var call active
	if traced {
		call = rec.root(id, spanCore)
		ref := call.ref()
		rec.current.Store(&ref)
	}
	var check func() error
	switch s.kind {
	case kindTable2:
		out, err := sys.Run(core.Options{Mode: core.ModeHybrid})
		r.err = err
		if err == nil {
			r.power = out.CoolingPower()
			r.solver = solverCounts{
				iterations: out.Opt1Report.Iterations + out.Opt2Report.Iterations,
				funcEvals:  out.Opt1Report.FuncEvals + out.Opt2Report.FuncEvals,
				gradEvals:  out.Opt1Report.GradEvals + out.Opt2Report.GradEvals,
			}
			check = func() error { return s.checkOptimum(sys, name, out.Feasible, out.Omega, out.ITEC, r.power) }
		}
	case kindZoned8:
		out, err := runZoned8(sys)
		r.err = err
		if err == nil {
			r.power = out.CoolingPower()
			r.solver = solverCounts{
				iterations: out.Report.Iterations + out.Opt2Report.Iterations,
				funcEvals:  out.Report.FuncEvals + out.Opt2Report.FuncEvals,
				gradEvals:  out.Report.GradEvals + out.Opt2Report.GradEvals,
			}
			check = func() error { return s.checkZoned(name, out.Feasible, r.power) }
		}
	case kindSweep:
		pts, err := experiments.SurfaceSystem(ctx, sys, s.grid, s.grid, 1)
		r.err = err
		if err == nil {
			minP, runaway := surfaceSummary(pts)
			r.power = minP
			check = func() error { return s.checkSweep(name, minP, runaway, len(pts)) }
		}
	}
	if traced {
		rec.current.Store(nil)
		call.finish()
	}
	r.latency = time.Since(start)
	r.cache = sys.CacheStats()
	if r.err == nil {
		r.err = check()
	}
	return r
}

// runZoned8 is the zoned workload's call: eight TEC control zones spread
// round-robin over the covered units, Algorithm 1 over (ω, I₁..I₈) with
// adjoint gradients. The model is reached only through backend.ModelOf.
func runZoned8(sys *core.System) (*core.ZonedOutcome, error) {
	m, ok := backend.ModelOf(sys.Backend())
	if !ok {
		return nil, fmt.Errorf("backend %q exposes no model", sys.Backend().Name())
	}
	z, err := m.SpreadZoning(8)
	if err != nil {
		return nil, err
	}
	return sys.RunZoned(z, core.Options{Mode: core.ModeHybrid, Gradient: true})
}

// surfaceSummary returns the surface's minimum finite 𝒫 and the number
// of samples inside the runaway wall.
func surfaceSummary(pts []experiments.SurfacePoint) (minP float64, runaway int) {
	minP = math.Inf(1)
	for _, p := range pts {
		if p.Runaway {
			runaway++
			continue
		}
		minP = math.Min(minP, p.Power)
	}
	return minP, runaway
}

func (s *solveRunner) checkOptimum(sys *core.System, name string, feasible bool, omega, itec, power float64) error {
	if !feasible {
		return fmt.Errorf("%s: optimum infeasible", name)
	}
	want, err := s.refs.lookup(s.name, name)
	if err != nil {
		return err
	}
	cfg := sys.Config()
	if err := checkCoord(name+": ω*", omega, want.OmegaRadS, cfg.UMax()); err != nil {
		return err
	}
	if err := checkCoord(name+": I*", itec, want.ITecA, cfg.TEC.MaxCurrent); err != nil {
		return err
	}
	return checkPower(name, power, want.PowerW)
}

func (s *solveRunner) checkZoned(name string, feasible bool, power float64) error {
	if !feasible {
		return fmt.Errorf("%s: zoned optimum infeasible", name)
	}
	want, err := s.refs.lookup(s.name, name)
	if err != nil {
		return err
	}
	return checkPower(name, power, want.PowerW)
}

func (s *solveRunner) checkSweep(name string, minP float64, runaway, n int) error {
	if runaway == 0 || runaway == n {
		return fmt.Errorf("%s: surface lost its runaway wall (%d/%d runaway)", name, runaway, n)
	}
	want, err := s.refs.lookup(s.name, name)
	if err != nil {
		return err
	}
	if runaway != want.RunawayPoints {
		return fmt.Errorf("%s: %d runaway samples, reference %d", name, runaway, want.RunawayPoints)
	}
	return checkPower(name+": surface minimum", minP, want.PowerW)
}

// reference computes this workload's answer for every benchmark, for
// writing the committed reference file.
func (s *solveRunner) reference(ctx context.Context) (map[string]answer, error) {
	out := map[string]answer{}
	for _, name := range workload.Names {
		sys, err := s.setup.System(name)
		if err != nil {
			return nil, err
		}
		switch s.kind {
		case kindTable2:
			o, err := sys.Run(core.Options{Mode: core.ModeHybrid})
			if err != nil {
				return nil, err
			}
			out[name] = answer{OmegaRadS: o.Omega, ITecA: o.ITEC, PowerW: o.CoolingPower()}
		case kindZoned8:
			o, err := runZoned8(sys)
			if err != nil {
				return nil, err
			}
			out[name] = answer{OmegaRadS: o.Omega, PowerW: o.CoolingPower()}
		case kindSweep:
			pts, err := experiments.SurfaceSystem(ctx, sys, s.grid, s.grid, 1)
			if err != nil {
				return nil, err
			}
			minP, runaway := surfaceSummary(pts)
			out[name] = answer{PowerW: minP, RunawayPoints: runaway}
		}
	}
	return out, nil
}

func (s *solveRunner) extras() (map[string]float64, error) { return nil, nil }

func (s *solveRunner) close() error { return nil }

func addStats(dst *evalcache.Stats, d evalcache.Stats) {
	dst.Hits += d.Hits
	dst.Waits += d.Waits
	dst.Misses += d.Misses
	dst.Rotations += d.Rotations
	dst.Collisions += d.Collisions
	dst.Batches += d.Batches
	dst.BatchPoints += d.BatchPoints
}

func subStats(a, b evalcache.Stats) evalcache.Stats {
	return evalcache.Stats{
		Hits:        a.Hits - b.Hits,
		Waits:       a.Waits - b.Waits,
		Misses:      a.Misses - b.Misses,
		Rotations:   a.Rotations - b.Rotations,
		Collisions:  a.Collisions - b.Collisions,
		Batches:     a.Batches - b.Batches,
		BatchPoints: a.BatchPoints - b.BatchPoints,
	}
}
