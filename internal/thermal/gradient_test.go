package thermal

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"oftec/internal/sparse"
)

// This file pins the adjoint gradients against Richardson-extrapolated
// central differences of the forward evaluation. The forward solves are
// converged to a 1e-9 relative residual, so with tuned steps the
// extrapolated quotients are accurate to well below the 1e-5 relative
// bar the adjoint must meet on interior points.

// richardson returns the Richardson-extrapolated central difference
// (4·D(h/2) − D(h))/3, killing the O(h²) truncation term.
func richardson(f func(float64) float64, x, h float64) float64 {
	d := func(h float64) float64 { return (f(x+h) - f(x-h)) / (2 * h) }
	return (4*d(h/2) - d(h)) / 3
}

// checkGradComponent asserts relative agreement between an adjoint
// derivative and its finite-difference reference.
func checkGradComponent(t *testing.T, name string, adj, fd, tol float64) {
	t.Helper()
	denom := math.Max(math.Abs(adj), math.Abs(fd))
	if denom < 1e-9 {
		// Both effectively zero: compare absolutely.
		if math.Abs(adj-fd) > 1e-9 {
			t.Errorf("%s: adjoint %g vs central diff %g (both should vanish)", name, adj, fd)
		}
		return
	}
	if rel := math.Abs(adj-fd) / denom; rel > tol {
		t.Errorf("%s: adjoint %g vs central diff %g, rel err %.3g > %.3g", name, adj, fd, rel, tol)
	}
}

// testZoning builds a k-zone zoning via SpreadZoning (round-robin of the
// units owning TEC-covered cell centers), failing the test when the
// resolution cannot support k zones.
func testZoning(t *testing.T, m *Model, k int) *Zoning {
	t.Helper()

	z, err := m.SpreadZoning(k)
	if err != nil {
		t.Fatalf("building %d-zone test zoning: %v", k, err)
	}
	return z
}

func TestSmoothMaxBracketsTrueMax(t *testing.T) {
	temps := []float64{310, 355.2, 354.9, 320, 341}
	n := len(temps)
	for _, bound := range []float64{0.01, 0.05, 1.0} {
		tau := SmoothMaxTau(n, bound)
		sm := SmoothMax(temps, tau)
		if sm < 355.2 {
			t.Errorf("bound %g: SmoothMax %g below true max 355.2", bound, sm)
		}
		if sm > 355.2+bound+1e-12 {
			t.Errorf("bound %g: SmoothMax %g exceeds max + bound = %g", bound, sm, 355.2+bound)
		}
	}
	// Single element: exact.
	if sm := SmoothMax([]float64{350}, SmoothMaxTau(1, 0.05)); sm != 350 {
		t.Errorf("single-element SmoothMax = %g, want 350", sm)
	}
}

// TestAdjointMatchesCentralDiffScalar: the scalar (ω, I) adjoint against
// central differences on interior and near-bound operating points.
func TestAdjointMatchesCentralDiffScalar(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	nc := m.ChipGrid().NumCells()
	tau := SmoothMaxTau(nc, DefaultSmoothBound)

	evalP := func(omega, itec float64) float64 {
		res, err := m.Evaluate(omega, itec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runaway {
			t.Fatalf("runaway at (ω=%g, I=%g)", omega, itec)
		}
		return res.CoolingPower()
	}
	evalT := func(omega, itec float64) float64 {
		res, err := m.Evaluate(omega, itec)
		if err != nil {
			t.Fatal(err)
		}
		return SmoothMax(res.ChipTemps, tau)
	}

	points := []struct {
		name         string
		omega, itec  float64
		tol          float64
		hOmega, hCur float64
	}{
		{"interior", 250, 1.0, 1e-5, 0.5, 0.02},
		{"interior-low-current", 120, 0.4, 1e-5, 0.5, 0.02},
		// Near the box edges the solver still sits on smooth branches of
		// the model, so the same bar applies; the steps shrink to stay on
		// the feasible side.
		{"near-max-omega", m.Config().Fan.OmegaMax - 2, 0.8, 1e-5, 0.4, 0.02},
		{"near-zero-current", 200, 0.06, 1e-5, 0.5, 0.01},
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			g, err := m.EvaluateGrad(nil, opPoint(pt.omega, pt.itec))
			if err != nil {
				t.Fatal(err)
			}
			if g.SmoothMaxTemp < g.Result.MaxChipTemp || g.SmoothMaxTemp > g.Result.MaxChipTemp+g.SmoothBound+1e-12 {
				t.Errorf("SmoothMaxTemp %g outside [max, max+bound] = [%g, %g]",
					g.SmoothMaxTemp, g.Result.MaxChipTemp, g.Result.MaxChipTemp+g.SmoothBound)
			}
			fd := richardson(func(w float64) float64 { return evalP(w, pt.itec) }, pt.omega, pt.hOmega)
			checkGradComponent(t, "d𝒫/dω", g.PowerGrad[0], fd, pt.tol)
			fd = richardson(func(c float64) float64 { return evalP(pt.omega, c) }, pt.itec, pt.hCur)
			checkGradComponent(t, "d𝒫/dI", g.PowerGrad[1], fd, pt.tol)
			fd = richardson(func(w float64) float64 { return evalT(w, pt.itec) }, pt.omega, pt.hOmega)
			checkGradComponent(t, "d𝒯/dω", g.TempGrad[0], fd, pt.tol)
			fd = richardson(func(c float64) float64 { return evalT(pt.omega, c) }, pt.itec, pt.hCur)
			checkGradComponent(t, "d𝒯/dI", g.TempGrad[1], fd, pt.tol)
		})
	}
}

// TestAdjointMatchesCentralDiffZoned: the zoned adjoint across k ∈
// {1, 4, 8} control zones, every component of the (1+k)-dimensional
// gradient against central differences.
func TestAdjointMatchesCentralDiffZoned(t *testing.T) {
	for _, k := range []int{1, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cfg := testConfig()
			m := benchModel(t, cfg, "Basicmath")
			z := testZoning(t, m, k)
			nc := m.ChipGrid().NumCells()
			tau := SmoothMaxTau(nc, DefaultSmoothBound)

			currents := make([]float64, k)
			for i := range currents {
				currents[i] = 0.3 + 0.15*float64(i%5)
			}
			const omega = 220.0

			g, err := m.EvaluateGrad(z, Point{Omega: omega, Currents: currents})
			if err != nil {
				t.Fatal(err)
			}
			if len(g.PowerGrad) != 1+k || len(g.TempGrad) != 1+k {
				t.Fatalf("gradient length %d/%d, want %d", len(g.PowerGrad), len(g.TempGrad), 1+k)
			}

			eval := func(w float64, cur []float64) *Result {
				res, err := m.EvaluateWarm(z, Point{Omega: w, Currents: cur}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Runaway {
					t.Fatalf("runaway at ω=%g", w)
				}
				return res
			}

			fdP := richardson(func(w float64) float64 { return eval(w, currents).CoolingPower() }, omega, 0.5)
			checkGradComponent(t, "d𝒫/dω", g.PowerGrad[0], fdP, 1e-5)
			fdT := richardson(func(w float64) float64 { return SmoothMax(eval(w, currents).ChipTemps, tau) }, omega, 0.5)
			checkGradComponent(t, "d𝒯/dω", g.TempGrad[0], fdT, 1e-5)

			probe := make([]float64, k)
			for zi := 0; zi < k; zi++ {
				zi := zi
				perturb := func(c float64) []float64 {
					copy(probe, currents)
					probe[zi] = c
					return probe
				}
				fdP := richardson(func(c float64) float64 { return eval(omega, perturb(c)).CoolingPower() }, currents[zi], 0.02)
				checkGradComponent(t, fmt.Sprintf("d𝒫/dI_%d", zi), g.PowerGrad[1+zi], fdP, 1e-5)
				fdT := richardson(func(c float64) float64 { return SmoothMax(eval(omega, perturb(c)).ChipTemps, tau) }, currents[zi], 0.02)
				checkGradComponent(t, fmt.Sprintf("d𝒯/dI_%d", zi), g.TempGrad[1+zi], fdT, 1e-5)
			}
		})
	}
}

// TestAdjointZonedSingleZoneMatchesScalar: the k=1 zoned gradient and the
// scalar gradient are the same computation and must agree bitwise, like
// the underlying evaluations.
func TestAdjointZonedSingleZoneMatchesScalar(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	z := testZoning(t, m, 1)
	gz, err := m.EvaluateGrad(z, opPoint(210, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	gs, err := m.EvaluateGrad(nil, opPoint(210, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if gz.Result != gs.Result {
		t.Error("k=1 zoned gradient did not share the scalar result memo entry")
	}
	for i := range gs.PowerGrad {
		if gz.PowerGrad[i] != gs.PowerGrad[i] || gz.TempGrad[i] != gs.TempGrad[i] {
			t.Errorf("component %d: zoned (%g, %g) vs scalar (%g, %g)",
				i, gz.PowerGrad[i], gz.TempGrad[i], gs.PowerGrad[i], gs.TempGrad[i])
		}
	}
}

// TestAdjointRunawayRejected: a runaway operating point has no
// temperature field to differentiate; the gradient must refuse rather
// than fabricate numbers.
func TestAdjointRunawayRejected(t *testing.T) {
	m := benchModel(t, testConfig(), "Basicmath")
	// Fanless, max current: the corner the equivalence suite pins as
	// runaway.
	if _, err := m.EvaluateGrad(nil, opPoint(0, m.Config().TEC.MaxCurrent)); err == nil {
		t.Fatal("EvaluateGrad on a runaway point returned a gradient")
	}
}

// serialAdjointPair is the serial reference for EvaluateGrad at p: the
// same two right-hand sides, solved by sparse.CGPrecond under the ω-slice
// factorization one after the other through one workspace, then the same
// contraction. p must already
// be evaluated on m, so the reference differentiates the memoized Result.
func serialAdjointPair(t *testing.T, m *Model, z *Zoning, p Point) *Gradient {
	t.Helper()
	z = m.zoningOr(z)
	res, err := m.EvaluateWarm(z, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, tsc := m.getScratch(), m.getScratch()
	defer m.putScratch(sc)
	defer m.putScratch(tsc)
	g, opts := m.adjointSystem(sc, tsc.warm, res, z, p)
	opts.Work = &sc.ws
	ic := m.factorSlice(sc)
	var lam [2][]float64
	var st [2]sparse.Stats
	for i, rhs := range [2][]float64{sc.warm, tsc.warm} {
		if lam[i], st[i], err = sparse.CGPrecond(sc.mat, rhs, ic, opts); err != nil {
			t.Fatalf("serial adjoint %d: %v", i, err)
		}
	}
	m.contractAdjoints(g, z, p.Omega, sc.cur, lam, st)
	return g
}

// sameBits reports whether two slices hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAdjointPairMatchesSerialSolves: EvaluateGrad solves its two
// adjoints concurrently on one matrix and one IC(0) factor, each with its
// own workspace. Its gradients and adjoint statistics must be bit for
// bit those of the two solves run one after the other, on the one-zone
// deployment, on eight zones and under the liquid coolant. Run at -cpu 1
// this pins the serial degenerate path; at -cpu 2 the concurrent one.
func TestAdjointPairMatchesSerialSolves(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		k    int
		p    Point
	}{
		{"one-zone", testConfig(), 1, opPoint(230, 1.1)},
		{"spread-8", testConfig(), 8, opPoint(220, 0.3, 0.45, 0.6, 0.75, 0.9, 0.3, 0.45, 0.6)},
		{"liquid", liquidConfig(), 1, opPoint(200, 0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := benchModel(t, tc.cfg, "Basicmath")
			var z *Zoning
			if tc.k > 1 {
				z = testZoning(t, m, tc.k)
			}
			g, err := m.EvaluateGrad(z, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			ref := serialAdjointPair(t, m, z, tc.p)
			if !sameBits(g.PowerGrad, ref.PowerGrad) {
				t.Errorf("PowerGrad %v, serial %v", g.PowerGrad, ref.PowerGrad)
			}
			if !sameBits(g.TempGrad, ref.TempGrad) {
				t.Errorf("TempGrad %v, serial %v", g.TempGrad, ref.TempGrad)
			}
			if g.AdjointStats.Iterations != ref.AdjointStats.Iterations ||
				math.Float64bits(g.AdjointStats.Residual) != math.Float64bits(ref.AdjointStats.Residual) {
				t.Errorf("AdjointStats %+v, serial %+v", g.AdjointStats, ref.AdjointStats)
			}
		})
	}
}

// TestAdjointConcurrentCallersShareModel: eight goroutines differentiate
// distinct points on one shared Model, the even ones on the one-zone
// deployment and the odd ones on eight zones, while every call fans out
// its own adjoint pair. Each Gradient must DeepEqual the one a fresh
// model computes for that point alone.
func TestAdjointConcurrentCallersShareModel(t *testing.T) {
	const callers = 8
	point := func(i int) Point {
		omega := 160 + 15*float64(i)
		if i%2 == 0 {
			return opPoint(omega, 0.4+0.1*float64(i))
		}
		cur := make([]float64, 8)
		for j := range cur {
			cur[j] = 0.3 + 0.05*float64((i+j)%7)
		}
		return Point{Omega: omega, Currents: cur}
	}

	shared := benchModel(t, testConfig(), "Basicmath")
	zonings := [2]*Zoning{nil, testZoning(t, shared, 8)}
	got := make([]*Gradient, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = shared.EvaluateGrad(zonings[i%2], point(i))
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		fresh := benchModel(t, testConfig(), "Basicmath")
		freshZonings := [2]*Zoning{nil, testZoning(t, fresh, 8)}
		want, err := fresh.EvaluateGrad(freshZonings[i%2], point(i))
		if err != nil {
			t.Fatalf("caller %d solo: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("caller %d: shared-model gradient differs from the solo answer", i)
		}
	}
}
