package thermal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"oftec/internal/coolant"
	"oftec/internal/sparse"
	"oftec/internal/units"
)

// TestResultMemoEveryZoneCount pins the one memo rule: a steady state is
// memoized by its operating point — zoning, ω, and every zone current —
// whatever the zone count. For k ∈ {1, 3, 9} on fixed-seed random points
// inside the box, a repeated EvaluateWarm, the gradient's steady state,
// and EvaluateBatch all return the first EvaluateWarm's pointer, a
// repeated EvaluateGrad returns the first Gradient, and a SetDynamicPower
// flush makes every point solve and differentiate afresh. Under k = 1 the
// explicit one-zone zoning and the nil zoning share one pointer.
func TestResultMemoEveryZoneCount(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{1, 3, 9} {
		pts := randomPoints(rng, cfg, k, 8)
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			m := benchModel(t, cfg, "Basicmath")
			z := testZoning(t, m, k)
			first := make([]*Result, len(pts))
			grads := make([]*Gradient, len(pts))
			for i, p := range pts {
				res, err := m.EvaluateWarm(z, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				first[i] = res
				again, err := m.EvaluateWarm(z, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if again != res {
					t.Errorf("point %d: repeated EvaluateWarm returned a fresh Result", i)
				}
				if k == 1 {
					unzoned, err := m.EvaluateWarm(nil, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					if unzoned != res {
						t.Errorf("point %d: nil and one-zone zonings hold different Results", i)
					}
				}
				if res.Runaway {
					continue
				}
				g, err := m.EvaluateGrad(z, p)
				if err != nil {
					t.Fatal(err)
				}
				if g.Result != res {
					t.Errorf("point %d: gradient re-solved its steady state", i)
				}
				gAgain, err := m.EvaluateGrad(z, p)
				if err != nil {
					t.Fatal(err)
				}
				if gAgain != g {
					t.Errorf("point %d: repeated EvaluateGrad returned a fresh Gradient", i)
				}
				grads[i] = g
			}

			batch, err := m.EvaluateBatch(context.Background(), z, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pts {
				if batch[i] != first[i] {
					t.Errorf("point %d: batch did not return the memoized Result", i)
				}
			}

			if err := m.SetDynamicPower(m.dynMap); err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				res, err := m.EvaluateWarm(z, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res == first[i] {
					t.Errorf("point %d: Result survived the SetDynamicPower flush", i)
				}
				if grads[i] == nil {
					continue
				}
				g, err := m.EvaluateGrad(z, p)
				if err != nil {
					t.Fatal(err)
				}
				if g == grads[i] {
					t.Errorf("point %d: Gradient survived the SetDynamicPower flush", i)
				}
			}
		})
	}
}

// TestTransientRefactorsOnKeyChange pins when a Transient factors its
// step matrix: it keeps one factor across steps at one (ω, I, Δt), and
// refactors on any change of the three, a change back included.
func TestTransientRefactorsOnKeyChange(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	tr, err := m.NewTransient(250, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(label string, dt float64) *sparse.ICPreconditioner {
		t.Helper()
		if _, err := tr.Step(dt); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tr.ic == nil {
			t.Fatalf("%s: the step matrix did not factor", label)
		}
		return tr.ic
	}
	first := step("first step", 0.05)
	for i := 0; i < 3; i++ {
		if step("same key", 0.05) != first {
			t.Fatalf("step %d at one key refactored", i+2)
		}
	}
	// At its key a step allocates nothing: it solves into the Transient's
	// own vector in pooled scratch (which a -race build drops at random).
	if !raceEnabled {
		if n := testing.AllocsPerRun(4, func() { step("same key", 0.05) }); n != 0 {
			t.Errorf("a step at its key allocates %g times", n)
		}
	}
	prev := first
	for _, c := range []struct {
		label       string
		omega, itec float64
		dt          float64
	}{
		{"ω changed", 300, 1, 0.05},
		{"I changed", 300, 2, 0.05},
		{"Δt changed", 300, 2, 0.1},
		{"changed back", 250, 1, 0.05},
	} {
		if err := tr.SetOperatingPoint(c.omega, c.itec); err != nil {
			t.Fatal(err)
		}
		ic := step(c.label, c.dt)
		if ic == prev || ic == first {
			t.Errorf("%s: the step reused a factor of another key", c.label)
		}
		if step(c.label+", held", c.dt) != ic {
			t.Errorf("%s: the next step at the key refactored", c.label)
		}
		prev = ic
	}
}

// TestTransientUnfactorableStep: a step matrix that does not factor fails
// every step at its key and leaves the temperatures and the time where
// they were, and it is not factored again until the key changes. On a
// hot, leaky configuration with the fan off, the step matrix of a long
// step is indefinite.
func TestTransientUnfactorableStep(t *testing.T) {
	cfg := testConfig()
	cfg.Ambient = units.CToK(140)
	cfg.TMax = cfg.Ambient + 45
	cfg.Leakage.P0Density *= 64
	m := benchModel(t, cfg, "Basicmath")
	tr, err := m.NewTransient(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 1e6
	temps := append([]float64(nil), tr.Temperatures()...)
	failing := func(dt float64) {
		if _, err := tr.Step(dt); err == nil {
			t.Fatalf("a %g s step on an indefinite matrix succeeded", dt)
		}
	}
	for i := 0; i < 3; i++ {
		failing(bad)
		if tr.ic != nil || tr.icKey != [3]float64{0, 0, bad} {
			t.Fatalf("step %d: factor %v under key %v, want nil under (0, 0, %g)", i+1, tr.ic != nil, tr.icKey, bad)
		}
		if tr.Time() != 0 || !reflect.DeepEqual(tr.Temperatures(), temps) {
			t.Fatalf("step %d: a failed step advanced the state", i+1)
		}
	}

	// A factorization allocates the factor's value array, so a step that
	// refactors allocates more than one at the key it already failed on.
	held := testing.AllocsPerRun(8, func() { failing(bad) })
	dt := bad
	refactoring := testing.AllocsPerRun(8, func() {
		dt = 3*bad - dt // 2·bad, bad, 2·bad, …: each a new key
		failing(dt)
	})
	if held >= refactoring {
		t.Errorf("a failed key's steps allocate %g times each, key changes %g: the failed key refactors", held, refactoring)
	}

	// A short step's C/Δt makes its matrix definite again.
	if _, err := tr.Step(1e-4); err != nil {
		t.Fatalf("a step at a new key: %v", err)
	}
	if tr.ic == nil {
		t.Error("a new key kept the failed key's nil factor")
	}
}

// TestTransientStepsMatchFreshFactor: on a schedule that toggles two
// operating points and two step sizes, repeats and changes back
// included, every step's field is bitwise the field CG gives under a
// fresh sparse.NewICPreconditioner of the same assembled step matrix.
func TestTransientStepsMatchFreshFactor(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	ops := [2][2]float64{{250, 1}, {120, 2.5}}
	dts := [2]float64{0.05, 0.2}
	tr, err := m.NewTransient(ops[0][0], ops[0][1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		op, dt := ops[i/3%2], dts[i/2%2]
		if err := tr.SetOperatingPoint(op[0], op[1]); err != nil {
			t.Fatal(err)
		}
		sc := m.getScratch()
		tr.assemble(sc, dt)
		mat, err := m.basePat.WithValues(append([]float64(nil), sc.vals...))
		if err != nil {
			t.Fatal(err)
		}
		rhs := append([]float64(nil), sc.rhs...)
		m.putScratch(sc)
		ic, err := sparse.NewICPreconditioner(mat)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := sparse.CGPrecond(mat, rhs, ic, sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, X0: tr.Temperatures()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Step(dt); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for k, v := range tr.Temperatures() {
			if math.Float64bits(v) != math.Float64bits(want[k]) {
				t.Fatalf("step %d (ω=%g, I=%g, Δt=%g): node %d reads %v, a fresh factor's solve %v", i, op[0], op[1], dt, k, v, want[k])
			}
		}
	}
}

// TestSlicePrecondParallelMatchesSerial pins the shared IC(0) analysis on
// the thermal pattern: ω-slice and transient-step matrices factored
// concurrently through the model's one ICSymbolic are bitwise the
// factorizations sparse.NewICPreconditioner computes from scratch.
func TestSlicePrecondParallelMatchesSerial(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	tr, err := m.NewTransient(250, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mats []*sparse.CSR
	keep := func(assemble func(sc *evalScratch)) {
		sc := m.getScratch()
		defer m.putScratch(sc)
		assemble(sc)
		mat, err := m.basePat.WithValues(append([]float64(nil), sc.vals...))
		if err != nil {
			t.Fatal(err)
		}
		mats = append(mats, mat)
	}
	for _, omega := range []float64{0, 120, 250, 400, m.UMax()} {
		keep(func(sc *evalScratch) { m.assembleSlice(sc, omega) })
	}
	keep(func(sc *evalScratch) { tr.assemble(sc, 0.05) })

	got := make([]*sparse.ICPreconditioner, len(mats))
	var wg sync.WaitGroup
	for k := range mats {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ic, err := m.icSym.Factor(mats[k])
			if err != nil {
				t.Error(err)
			}
			got[k] = ic
		}(k)
	}
	wg.Wait()
	for k, mat := range mats {
		want, err := sparse.NewICPreconditioner(mat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("matrix %d: shared-symbolic factor differs from NewICPreconditioner", k)
		}
	}
}

// TestSlicePrefixMatchesFactor: an ω-slice factored through the network's
// prefix is the factor ICSymbolic.Factor makes of the same matrix, on the
// slices of every coolant, at random ambients and leakage densities
// (35–140 °C, ×0.5–32) and on the paper-resolution default. The values
// agree (DeepEqual), one application of each agrees bit for bit, and a
// slice that does not factor fails through both with the same error; a
// network whose prefix failed has no slice that Factor can factor.
//
// Every steady solve factors its slice the way factorSlice does, from
// its own point's assembled matrix rather than the slice's canonical
// I_TEC = 0 one. So at each of the grid's ω and at random ω, a point
// with a random zoning, random zone currents and a random leakage
// treatment (linearized, or a constant per-cell leakage on the RHS) is
// assembled too: its factorSlice is DeepEqual to the slice's prefix
// factor and applies to the same bits, and it fails exactly where the
// slice fails, a failed prefix included, so no runaway verdict moves.
// The draws must reach a failed prefix and a slice that fails past it.
func TestSlicePrefixMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	paper := DefaultConfig()
	cfgs := []Config{paper}
	for _, name := range coolant.Names() {
		spec, err := coolant.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 6; c++ {
			cfg := testConfig()
			cfg.Ambient = units.CToK(35 + 105*rng.Float64())
			cfg.TMax = cfg.Ambient + 45
			cfg.Leakage.P0Density *= 0.5 * math.Pow(64, rng.Float64())
			cfg.Coolant = spec
			cfgs = append(cfgs, cfg)
		}
	}
	var factored, prefixFailed, sliceFailed int
	for c, cfg := range cfgs {
		m := benchModel(t, cfg, "Basicmath")
		zonings := []*Zoning{nil, testZoning(t, m, 3), testZoning(t, m, 9)}
		sc, pt := m.getScratch(), m.getScratch()
		var omegas []float64
		for s := 0; s < 9; s++ {
			omegas = append(omegas, m.UMax()*float64(s)/8)
		}
		for s := 0; s < 3; s++ {
			omegas = append(omegas, m.UMax()*rng.Float64())
		}
		for _, omega := range omegas {
			m.assembleSlice(sc, omega)
			want, wantErr := m.icSym.Factor(sc.mat)
			point := assembleRandomPoint(rng, m, pt, zonings[rng.Intn(len(zonings))], omega)
			fromPoint := m.factorSlice(pt)
			if m.slicePre == nil {
				if wantErr == nil {
					t.Fatalf("config %d: the prefix failed, yet the slice at ω=%g factors", c, omega)
				}
				if fromPoint != nil {
					t.Fatalf("config %d: the prefix failed, yet %s factors", c, point)
				}
				prefixFailed++
				continue
			}
			got, gotErr := m.slicePre.Factor(sc.mat)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("config %d, ω=%g: prefix factor error %v, Factor error %v", c, omega, gotErr, wantErr)
			}
			if gotErr != nil {
				if fromPoint != nil {
					t.Fatalf("config %d: the slice at ω=%g fails, yet %s factors", c, omega, point)
				}
				sliceFailed++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("config %d, ω=%g: the prefix factor differs from Factor's", c, omega)
			}
			if fromPoint == nil || !reflect.DeepEqual(fromPoint, got) {
				t.Fatalf("config %d: %s factors unlike its slice", c, point)
			}
			r := make([]float64, m.n)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			scratch := make([]float64, m.n)
			var applied [3][]float64
			for k, ic := range []*sparse.ICPreconditioner{want, got, fromPoint} {
				applied[k] = make([]float64, m.n)
				ic.ApplyScratch(applied[k], r, scratch)
			}
			for i := range r {
				x, y, z := applied[0][i], applied[1][i], applied[2][i]
				if math.Float64bits(x) != math.Float64bits(y) || math.Float64bits(x) != math.Float64bits(z) {
					t.Fatalf("config %d, ω=%g: applied factors differ at row %d: %v (Factor), %v (prefix), %v (%s)", c, omega, i, x, y, z, point)
				}
			}
			factored++
		}
		m.putScratch(sc)
		m.putScratch(pt)
	}
	t.Logf("%d slices factored bitwise equal, %d failed past the prefix, %d on a failed prefix", factored, sliceFailed, prefixFailed)
	if factored == 0 || sliceFailed == 0 || prefixFailed == 0 {
		t.Error("the draws missed a case")
	}
}

// assembleRandomPoint assembles into sc a steady system at ω under zoning
// z (nil is the one-zone deployment), with zone currents drawn from
// [0, MaxCurrent] and the leakage either linearized into the matrix or,
// with even odds, a constant per-cell draw on the RHS, and names it.
func assembleRandomPoint(rng *rand.Rand, m *Model, sc *evalScratch, z *Zoning, omega float64) string {
	z = m.zoningOr(z)
	cur := make([]float64, z.numZones)
	for i := range cur {
		cur[i] = m.cfg.TEC.MaxCurrent * rng.Float64()
	}
	sc.loadCurrents(z, cur)
	var leak []float64
	if rng.Intn(2) == 0 {
		leak = make([]float64, len(m.leakB))
		for i := range leak {
			leak[i] = 2 * m.leakB[i] * rng.Float64()
		}
	}
	m.assembleInto(sc, omega, sc.cur, leak == nil, leak)
	return fmt.Sprintf("the point (ω=%g, %d zones, linearized leakage %v)", omega, z.numZones, leak == nil)
}
