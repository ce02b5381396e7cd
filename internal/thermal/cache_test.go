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

// stepPrecond returns the cached preconditioner of tr's backward-Euler
// step of length dt, as Transient.Step looks it up.
func stepPrecond(m *Model, tr *Transient, dt float64) *sparse.ICPreconditioner {
	return m.precond(precondKey{omega: tr.omega, itec: tr.itec, dt: dt}, func(sc *evalScratch) (*sparse.ICPreconditioner, error) {
		tr.assemble(sc, dt)
		return m.icSym.Factor(sc.mat)
	})
}

// TestPrecondCache pins the preconditioner cache's hits and bound: a hit
// returns the cached factorization object, past the bound the cache
// clears wholesale, and steady solves leave it empty (each factors its
// ω-slice into its own scratch).
func TestPrecondCache(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	if _, err := m.Evaluate(250, 1); err != nil {
		t.Fatal(err)
	}
	if len(m.pcs) != 0 {
		t.Errorf("a steady solve cached %d factorizations", len(m.pcs))
	}
	tr, err := m.NewTransient(250, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ic1 := stepPrecond(m, tr, 1.5)
	if ic1 == nil {
		t.Fatal("step factorization failed")
	}
	if ic2 := stepPrecond(m, tr, 1.5); ic2 != ic1 {
		t.Error("step hit did not return the cached factorization")
	}

	for w := 0; w < maxPreconds; w++ {
		stepPrecond(m, tr, 0.01*float64(w+1))
	}
	m.pcMu.Lock()
	n := len(m.pcs)
	m.pcMu.Unlock()
	if n > maxPreconds {
		t.Errorf("cache holds %d preconditioners, bound %d", n, maxPreconds)
	}
	if ic3 := stepPrecond(m, tr, 1.5); ic3 == ic1 {
		t.Error("the first step outlived a wholesale clear")
	}
}

// TestPrecondCacheBuildOnMiss pins when the cache assembles: once on a
// miss and never on a hit, and a failed factorization stays cached as a
// failure, so it is neither assembled nor factored again.
func TestPrecondCacheBuildOnMiss(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	tr, err := m.NewTransient(250, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	step := func(sc *evalScratch) (*sparse.ICPreconditioner, error) {
		builds++
		tr.assemble(sc, 0.25)
		return m.icSym.Factor(sc.mat)
	}
	key := precondKey{omega: 250, itec: 1, dt: 0.25}
	ic1 := m.precond(key, step)
	if ic1 == nil || builds != 1 {
		t.Fatalf("miss: factored=%v builds=%d", ic1 != nil, builds)
	}
	ic2 := m.precond(key, step)
	if ic2 != ic1 || builds != 1 {
		t.Fatalf("hit rebuilt: builds=%d same=%v", builds, ic2 == ic1)
	}

	// An indefinite matrix: flip a diagonal entry's sign after assembly.
	fails := 0
	indefinite := func(sc *evalScratch) (*sparse.ICPreconditioner, error) {
		fails++
		m.assembleSlice(sc, 250)
		sc.vals[m.diagIdx[0]] = -1
		return m.icSym.Factor(sc.mat)
	}
	bad := precondKey{omega: 250, itec: 1, dt: 0.5}
	for i := 0; i < 2; i++ {
		if ic := m.precond(bad, indefinite); ic != nil {
			t.Fatalf("call %d: indefinite matrix factorized", i)
		}
	}
	if fails != 1 {
		t.Errorf("failed factorization assembled %d times, want once", fails)
	}
}

// TestPrecondCacheConcurrent races misses and hits on many transient-step
// keys, at two operating points, from several goroutines. Run under -race
// it pins the locking discipline: misses factor outside the lock, and
// once the misses settle every key answers one object.
func TestPrecondCacheConcurrent(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	var trs []*Transient
	for _, omega := range []float64{150, 250} {
		tr, err := m.NewTransient(omega, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	const steps = 16
	lookup := func(i int) *sparse.ICPreconditioner {
		return stepPrecond(m, trs[i%2], 0.01*float64(i/2+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 40; n++ {
				if lookup(rng.Intn(2*steps)) == nil {
					t.Error("factorization failed")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	for i := 0; i < 2*steps; i++ {
		if lookup(i) != lookup(i) {
			t.Errorf("key %d: settled cache answers two objects", i)
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
