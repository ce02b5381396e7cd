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

// TestPrecondCache pins the preconditioner cache's hits and bound: a hit
// returns the cached factorization object, and past the bound the cache
// clears wholesale.
func TestPrecondCache(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	ic1 := m.slicePrecond(250)
	if ic1 == nil {
		t.Fatal("ω-slice factorization failed")
	}
	if ic2 := m.slicePrecond(250); ic2 != ic1 {
		t.Error("ω-slice hit did not return the cached factorization")
	}

	for w := 0; w < maxPreconds; w++ {
		m.slicePrecond(100 + float64(w))
	}
	m.pcMu.Lock()
	n := len(m.pcs)
	m.pcMu.Unlock()
	if n > maxPreconds {
		t.Errorf("cache holds %d preconditioners, bound %d", n, maxPreconds)
	}
	if ic3 := m.slicePrecond(250); ic3 == ic1 {
		t.Error("the first slice outlived a wholesale clear")
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

// TestPrecondCacheConcurrent races misses and hits on many keys — ω-slices
// and transient steps — from several goroutines. Run under -race it pins
// the locking discipline: misses factor outside the lock, and once the
// misses settle every key answers one object.
func TestPrecondCacheConcurrent(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	tr, err := m.NewTransient(250, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const slices, steps = 24, 8
	lookup := func(i int) *sparse.ICPreconditioner {
		if i < slices {
			return m.slicePrecond(120 + 10*float64(i))
		}
		dt := 0.01 * float64(i-slices+1)
		return m.precond(precondKey{omega: 250, itec: 1, dt: dt}, func(sc *evalScratch) (*sparse.ICPreconditioner, error) {
			tr.assemble(sc, dt)
			return m.icSym.Factor(sc.mat)
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 40; n++ {
				if lookup(rng.Intn(slices+steps)) == nil {
					t.Error("factorization failed")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	for i := 0; i < slices+steps; i++ {
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
// network whose prefix failed has no slice that Factor can factor. The
// draws must reach a failed prefix and a slice that fails past it.
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
		sc := m.getScratch()
		for s := 0; s < 9; s++ {
			omega := m.UMax() * float64(s) / 8
			m.assembleSlice(sc, omega)
			want, wantErr := m.icSym.Factor(sc.mat)
			if m.slicePre == nil {
				if wantErr == nil {
					t.Fatalf("config %d: the prefix failed, yet the slice at ω=%g factors", c, omega)
				}
				prefixFailed++
				continue
			}
			got, gotErr := m.slicePre.Factor(sc.mat)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("config %d, ω=%g: prefix factor error %v, Factor error %v", c, omega, gotErr, wantErr)
			}
			if gotErr != nil {
				sliceFailed++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("config %d, ω=%g: the prefix factor differs from Factor's", c, omega)
			}
			r := make([]float64, m.n)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			x, y, scratch := make([]float64, m.n), make([]float64, m.n), make([]float64, m.n)
			got.ApplyScratch(x, r, scratch)
			want.ApplyScratch(y, r, scratch)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					t.Fatalf("config %d, ω=%g: applied factors differ at row %d: %v vs %v", c, omega, i, x[i], y[i])
				}
			}
			factored++
		}
		m.putScratch(sc)
	}
	t.Logf("%d slices factored bitwise equal, %d failed past the prefix, %d on a failed prefix", factored, sliceFailed, prefixFailed)
	if factored == 0 || sliceFailed == 0 || prefixFailed == 0 {
		t.Error("the draws missed a case")
	}
}
