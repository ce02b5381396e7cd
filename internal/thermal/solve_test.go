package thermal

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"oftec/internal/coolant"
	"oftec/internal/sparse"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// TestColdEvaluateAllocBound pins what a cold paper-resolution solve
// allocates: an EvaluateWarm at a fresh ω, a memo miss on a new ω-slice,
// allocates at most 32 KiB per call on average. That admits its Result
// (the 15.5 KB solution vector, ChipTemps, the struct and the memo key)
// but not a 57.6 KB factor: the slice factors into the pooled scratch.
func TestColdEvaluateAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratches at random, so a call may allocate a fresh one")
	}
	m := benchModel(t, DefaultConfig(), "Basicmath")
	evaluate := func(omega float64) {
		res, err := m.EvaluateWarm(nil, Point{Omega: omega, Currents: []float64{1.2}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runaway {
			t.Fatalf("ω=%g ran away", omega)
		}
	}
	evaluate(220) // the pool's first scratch
	const calls = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= calls; i++ {
		evaluate(220 + 1e-4*float64(i))
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.0f B per cold EvaluateWarm", perCall)
	if perCall > 32<<10 {
		t.Errorf("a cold EvaluateWarm allocates %.0f B on average, over the 32 KiB bound", perCall)
	}
}

// TestPreconditionerIterationBudget pins what the modified IC(0) factor
// and the probe anchors buy at paper resolution, where every Table-2
// evaluation solves: a cold Basicmath solve at (262 rad/s, 2.5 A) takes
// 21 CG iterations under it (29 under plain IC(0)), and the upper
// finite-difference probe at ω + 5.24e-3 rad/s, started from that field,
// takes 9 (IC(0): 13). The lower probe at ω − 5.24e-3 rad/s, started from
// the upper probe's reflection 2·T(ω) − T(ω + 5.24e-3), takes 1. The
// bounds leave a little room for rounding and none for a factor that
// drops the dropped fill instead of compensating for it, or for a
// reflection that is no better than the incumbent's field.
func TestPreconditionerIterationBudget(t *testing.T) {
	m := benchModel(t, DefaultConfig(), "Basicmath")
	cold, err := m.Evaluate(262, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := m.EvaluateWarm(nil, Point{Omega: 262 + 5.24e-3, Currents: []float64{2.5}}, cold.T)
	if err != nil {
		t.Fatal(err)
	}
	reflection := make([]float64, len(cold.T))
	for i := range reflection {
		reflection[i] = 2*cold.T[i] - probe.T[i]
	}
	lower, err := m.EvaluateWarm(nil, Point{Omega: 262 - 5.24e-3, Currents: []float64{2.5}}, reflection)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Runaway || probe.Runaway || lower.Runaway {
		t.Fatalf("runaway at the Table-2 operating point: cold %t, probe %t, lower probe %t", cold.Runaway, probe.Runaway, lower.Runaway)
	}
	if got := cold.SolveStats.Iterations; got > 24 {
		t.Errorf("cold solve took %d CG iterations, want at most 24", got)
	}
	if got := probe.SolveStats.Iterations; got > 11 {
		t.Errorf("warm probe solve took %d CG iterations, want at most 11", got)
	}
	if got := lower.SolveStats.Iterations; got > 2 {
		t.Errorf("reflected lower probe solve took %d CG iterations, want at most 2", got)
	}
}

// TestSteadyStateMatchesDenseOracle checks the sparse steady solve
// against dense linear algebra outside it, at test resolution, on random
// configurations: ambient 35–140 °C, leakage density ×0.5–32 and every
// coolant. A system a dense Cholesky finds indefinite has no stable
// steady state, so its point must be runaway, whether the factor fails
// or CG meets negative curvature; the field of every point that is not
// runaway must match a dense LU solve of the same system to 1e-8
// relative. Under -race it draws one configuration per coolant.
func TestSteadyStateMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	benches := workload.All()
	configs, points := 24, 10
	if raceEnabled {
		configs = len(coolant.Names())
	}
	var indefinite, solved int
	var worst float64
	for c := 0; c < configs; c++ {
		cfg := testConfig()
		cfg.Ambient = units.CToK(35 + 105*rng.Float64())
		cfg.TMax = cfg.Ambient + 45
		cfg.Leakage.P0Density *= 0.5 * math.Pow(64, rng.Float64())
		spec, err := coolant.SpecByName(coolant.Names()[c%len(coolant.Names())])
		if err != nil {
			t.Fatal(err)
		}
		cfg.Coolant = spec
		m := benchModel(t, cfg, benches[rng.Intn(len(benches))].Name)
		for p := 0; p < points; p++ {
			omega := m.UMax() * rng.Float64()
			itec := cfg.TEC.MaxCurrent * rng.Float64()
			res, err := m.Evaluate(omega, itec)
			if err != nil {
				t.Fatal(err)
			}
			mat, rhs, err := m.assembleReference(omega, uniformCells(m, itec), true, nil)
			if err != nil {
				t.Fatal(err)
			}
			a := mat.Dense()
			if !positiveDefinite(a) {
				indefinite++
				if !res.Runaway {
					t.Errorf("config %d (ω=%g, I=%g): indefinite system solved, max chip %g K", c, omega, itec, res.MaxChipTemp)
				}
				continue
			}
			if res.Runaway {
				continue
			}
			lu, err := sparse.NewLU(a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := lu.Solve(rhs)
			if err != nil {
				t.Fatal(err)
			}
			solved++
			for i, w := range want {
				d := math.Abs(res.T[i]-w) / math.Abs(w)
				worst = math.Max(worst, d)
				if d > 1e-8 {
					t.Fatalf("config %d (ω=%g, I=%g): node %d at %.12g K, dense LU %.12g K", c, omega, itec, i, res.T[i], w)
				}
			}
		}
	}
	t.Logf("%d points: %d indefinite (all runaway), %d solved, max relative error %.3g against LU", configs*points, indefinite, solved, worst)
}

// positiveDefinite reports whether the dense symmetric matrix a is
// positive definite: whether its Cholesky factorization meets only
// positive pivots. Each entry of the factor is a dot product of two
// factor rows, summed in four interleaved partial sums.
func positiveDefinite(a [][]float64) bool {
	l := make([][]float64, len(a))
	for i := range a {
		li := make([]float64, i+1)
		for j := 0; j <= i; j++ {
			x, y := li[:j], li[:j]
			if j < i {
				y = l[j][:j]
			}
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= j; k += 4 {
				s0 += x[k] * y[k]
				s1 += x[k+1] * y[k+1]
				s2 += x[k+2] * y[k+2]
				s3 += x[k+3] * y[k+3]
			}
			for ; k < j; k++ {
				s0 += x[k] * y[k]
			}
			s := a[i][j] - ((s0 + s1) + (s2 + s3))
			if j < i {
				li[j] = s / l[j][j]
				continue
			}
			if !(s > 0) {
				return false
			}
			li[i] = math.Sqrt(s)
		}
		l[i] = li
	}
	return true
}
