package solver

import (
	"math"
	"testing"
)

// twoBasins is a double-well quartic with a barrier at x=0: the global
// minimum sits near x=-2 (f ≈ -2), a local one near x=+2 (f ≈ +2).
func twoBasins() *Problem {
	return &Problem{
		F: func(x []float64) float64 {
			s := x[0]*x[0] - 4
			return s*s + x[0] + x[1]*x[1]
		},
		Lower: []float64{-4, -1},
		Upper: []float64{4, 1},
	}
}

func TestMultiStartFindsGlobalBasin(t *testing.T) {
	p := twoBasins()
	starts, err := CornerStarts(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MultiStart(ActiveSetSQP, p, starts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.X[0] > 0 || multi.F > -1.8 {
		t.Errorf("multistart f = %g at %v, want the global basin near x=-2", multi.F, multi.X)
	}
	// The aggregate must never be worse than any individual start.
	for _, s := range starts {
		single, err := ActiveSetSQP(p, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if single.Feasible(1e-6) && multi.F > single.F+1e-9 {
			t.Errorf("multistart f=%g worse than start %v (f=%g)", multi.F, s, single.F)
		}
	}
	if multi.FuncEvals == 0 || multi.Iterations == 0 {
		t.Error("multistart did not aggregate counters")
	}
}

func TestMultiStartPrefersFeasible(t *testing.T) {
	// One start converges infeasible (stuck at a bound far from the
	// feasible set), another feasible; the feasible one must win even with
	// a worse objective.
	p := &Problem{
		F: func(x []float64) float64 { return x[0] },
		Cons: []Func{
			func(x []float64) float64 { return 1 - x[0] }, // x ≥ 1
		},
		Lower: []float64{0},
		Upper: []float64{5},
	}
	rep, err := MultiStart(ActiveSetSQP, p, [][]float64{{0}, {4}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible(1e-6) {
		t.Fatalf("multistart returned infeasible point %v", rep.X)
	}
	if math.Abs(rep.X[0]-1) > 1e-3 {
		t.Errorf("x = %v, want 1", rep.X)
	}
}

func TestMultiStartValidation(t *testing.T) {
	p := twoBasins()
	if _, err := MultiStart(ActiveSetSQP, p, nil, Options{}); err == nil {
		t.Error("empty start list accepted")
	}
	if _, err := MultiStart(ActiveSetSQP, p, [][]float64{{1}}, Options{}); err == nil {
		t.Error("wrong-dimension start accepted")
	}
}

func TestCornerStarts(t *testing.T) {
	p := &Problem{
		F:     func(x []float64) float64 { return 0 },
		Lower: []float64{0, 10},
		Upper: []float64{1, 20},
	}
	starts, err := CornerStarts(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 5 { // center + 4 corners
		t.Fatalf("got %d starts, want 5", len(starts))
	}
	if starts[0][0] != 0.5 || starts[0][1] != 15 {
		t.Errorf("center = %v", starts[0])
	}
	for _, s := range starts[1:] {
		if s[0] != 0.1 && s[0] != 0.9 {
			t.Errorf("corner x0 = %g, want 0.1 or 0.9", s[0])
		}
		if s[1] != 11 && s[1] != 19 {
			t.Errorf("corner x1 = %g, want 11 or 19", s[1])
		}
	}
	if _, err := CornerStarts(p, 0.6); err == nil {
		t.Error("oversized inset accepted")
	}
	big := &Problem{F: p.F, Lower: make([]float64, 9), Upper: make([]float64, 9)}
	for i := range big.Upper {
		big.Upper[i] = 1
	}
	if _, err := CornerStarts(big, 0.1); err == nil {
		t.Error("9-dimensional corner enumeration accepted")
	}
}

// TestMultiStartEarlyStopTruncates: the launch stops at the first start
// that early-stops. Later starts never run, and the aggregate counters are
// those of the starts that did.
func TestMultiStartEarlyStopTruncates(t *testing.T) {
	p := twoBasins()
	stop := func(x []float64, f float64) bool { return f < 1.5 }
	starts := [][]float64{{3.5, 0}, {-3.5, 0}, {0.1, 0.5}}
	var ran []Report
	run := func(p *Problem, x0 []float64, opts Options) (Report, error) {
		rep, err := ActiveSetSQP(p, x0, opts)
		ran = append(ran, rep)
		return rep, err
	}
	rep, err := MultiStart(run, p, starts, Options{StopWhen: stop})
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || !ran[0].EarlyStopped {
		t.Fatalf("ran %d starts, want only the first, early-stopped", len(ran))
	}
	if !rep.EarlyStopped || rep.Stopped != StopEarlyStopped || rep.Converged {
		t.Errorf("launch verdict EarlyStopped=%t Stopped=%s Converged=%t, want early-stopped",
			rep.EarlyStopped, rep.Stopped, rep.Converged)
	}
	if rep.FuncEvals != ran[0].FuncEvals || rep.Iterations != ran[0].Iterations || rep.F != ran[0].F {
		t.Errorf("aggregate %+v, want the first start's %+v", rep, ran[0])
	}
}

func TestMultiStartEarlyStop(t *testing.T) {
	p := twoBasins()
	calls := 0
	opts := Options{StopWhen: func(x []float64, f float64) bool {
		calls++
		return f < 1.5
	}}
	starts := [][]float64{{-3.5, 0}, {3.5, 0}}
	rep, err := MultiStart(ActiveSetSQP, p, starts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.EarlyStopped {
		t.Error("early stop not propagated")
	}
	if calls == 0 {
		t.Error("StopWhen never invoked")
	}
}
