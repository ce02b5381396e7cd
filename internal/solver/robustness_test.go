package solver

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// checkReportInvariants asserts the cross-solver Report contract: a
// reason is always recorded, and the legacy boolean flags are exactly
// views of it.
func checkReportInvariants(t *testing.T, name string, p *Problem, rep Report) {
	t.Helper()
	if rep.Stopped == StopUnset {
		t.Errorf("%s: Stopped is StopUnset — an exit path forgot to record its reason", name)
	}
	if rep.Converged != (rep.Stopped == StopConverged) {
		t.Errorf("%s: Converged=%t but Stopped=%s", name, rep.Converged, rep.Stopped)
	}
	if rep.EarlyStopped != (rep.Stopped == StopEarlyStopped) {
		t.Errorf("%s: EarlyStopped=%t but Stopped=%s", name, rep.EarlyStopped, rep.Stopped)
	}
	if rep.FuncEvals <= 0 {
		t.Errorf("%s: FuncEvals=%d, want > 0", name, rep.FuncEvals)
	}
	if len(rep.X) != p.Dim() {
		t.Fatalf("%s: X has %d entries, want %d", name, len(rep.X), p.Dim())
	}
	for i, v := range rep.X {
		if v < p.Lower[i]-1e-12 || v > p.Upper[i]+1e-12 {
			t.Errorf("%s: X[%d]=%g outside [%g, %g]", name, i, v, p.Lower[i], p.Upper[i])
		}
	}
}

func conformanceProblem() *Problem {
	return &Problem{
		F: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		Cons: []Func{
			func(x []float64) float64 { return 2 - x[0] - x[1] },
		},
		Lower: []float64{-5, -5},
		Upper: []float64{5, 5},
	}
}

// TestReportConformance runs every iterative method through the stopping
// scenarios and checks the Report contract on each.
func TestReportConformance(t *testing.T) {
	for _, m := range methods() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			p := conformanceProblem()
			x0 := []float64{3, 0}

			// Natural finish (convergence or budget exhaustion).
			rep, err := m.run(p, x0, Options{MaxIter: 400})
			if err != nil {
				t.Fatal(err)
			}
			checkReportInvariants(t, m.name+"/natural", p, rep)
			if rep.Stopped != StopConverged && rep.Stopped != StopMaxIter {
				t.Errorf("natural finish stopped with %s", rep.Stopped)
			}

			// Early stop: the predicate fires at the first opportunity.
			rep, err = m.run(p, x0, Options{
				StopWhen: func([]float64, float64) bool { return true },
			})
			if err != nil {
				t.Fatal(err)
			}
			checkReportInvariants(t, m.name+"/earlystop", p, rep)
			if rep.Stopped != StopEarlyStopped && rep.Stopped != StopConverged {
				t.Errorf("early-stop run stopped with %s", rep.Stopped)
			}

			// Pre-cancelled context: no iterations, best-so-far report.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rep, err = m.run(p, x0, Options{Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			checkReportInvariants(t, m.name+"/precancelled", p, rep)
			if rep.Stopped != StopCancelled {
				t.Errorf("pre-cancelled run stopped with %s, want %s", rep.Stopped, StopCancelled)
			}
		})
	}
}

// TestCancelMidRunReturnsBestSoFar cancels the context from inside the
// objective after a fixed number of evaluations: each solver must stop at
// the next iteration boundary and hand back a usable best-so-far iterate.
func TestCancelMidRunReturnsBestSoFar(t *testing.T) {
	for _, m := range methods() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			evals := 0
			p := &Problem{
				F: func(x []float64) float64 {
					evals++
					if evals == 8 {
						cancel()
					}
					dx, dy := x[0]-1.5, x[1]+0.5
					return dx*dx + 3*dy*dy
				},
				Lower: []float64{-5, -5},
				Upper: []float64{5, 5},
			}
			rep, err := m.run(p, []float64{4, 4}, Options{Ctx: ctx, MaxIter: 400})
			if err != nil {
				t.Fatal(err)
			}
			checkReportInvariants(t, m.name, p, rep)
			if rep.Stopped != StopCancelled {
				t.Errorf("Stopped = %s, want %s", rep.Stopped, StopCancelled)
			}
			if math.IsNaN(rep.F) || rep.F >= Infeasible {
				t.Errorf("best-so-far F = %g is unusable", rep.F)
			}
		})
	}
}

// TestMultiStartCancelledAggregate checks the launch-wide verdict: a
// cancelled multistart reports StopCancelled with the counters of the
// start that ran, whether its probes run on one worker or two.
func TestMultiStartCancelledAggregate(t *testing.T) {
	p := conformanceProblem()
	starts := [][]float64{{3, 0}, {0, 3}, {-4, -4}, {4, 4}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		rep, err := MultiStart(ActiveSetSQP, p, starts, Options{Ctx: ctx, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Stopped != StopCancelled {
			t.Errorf("workers=%d: Stopped = %s, want %s", workers, rep.Stopped, StopCancelled)
		}
		if rep.Converged || rep.EarlyStopped {
			t.Errorf("workers=%d: cancelled launch claims Converged=%t EarlyStopped=%t",
				workers, rep.Converged, rep.EarlyStopped)
		}
		if rep.FuncEvals <= 0 {
			t.Errorf("workers=%d: FuncEvals=%d, want > 0 (best-so-far, not a zero Report)",
				workers, rep.FuncEvals)
		}
	}
}

// TestMultiStartAggregateReason checks the non-cancelled launch verdicts.
func TestMultiStartAggregateReason(t *testing.T) {
	p := conformanceProblem()
	starts := [][]float64{{3, 0}, {0, 3}}
	rep, err := MultiStart(ActiveSetSQP, p, starts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped == StopUnset {
		t.Error("multistart aggregate left Stopped unset")
	}
	if rep.Converged != (rep.Stopped == StopConverged) {
		t.Errorf("aggregate Converged=%t but Stopped=%s", rep.Converged, rep.Stopped)
	}

	rep, err = MultiStart(ActiveSetSQP, p, starts, Options{
		StopWhen: func([]float64, float64) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped != StopEarlyStopped || !rep.EarlyStopped {
		t.Errorf("early-stopped launch: Stopped=%s EarlyStopped=%t", rep.Stopped, rep.EarlyStopped)
	}
}

// TestSQPLineSearchEvalAccounting pins the SQP's evaluation count on a
// problem with a known one-iteration trajectory, as a regression test for
// the line search double-evaluating constraints per trial. The linear
// objective over always-satisfied constant constraints is solved in one
// full Newton step to the (0,0) corner:
//
//	initial point:   1 (objective) + 2n (∇f) + m (cons) + 2nm (∇cons) = 20
//	one trial step:  1 + m = 4 (merit: objective once, each constraint once)
//	new derivatives: n (∇f one-sided at the corner) + nm (∇cons one-sided;
//	                 accepted trial's constraint values are reused)  = 8
//	final report:    m (violation check) = 3
//
// The pre-fix line search spent m extra evaluations re-measuring the
// accepted trial's constraints, which this total would expose.
func TestSQPLineSearchEvalAccounting(t *testing.T) {
	const n, m = 2, 3
	p := &Problem{
		F: func(x []float64) float64 { return x[0] + x[1] },
		Cons: []Func{
			func([]float64) float64 { return -1 },
			func([]float64) float64 { return -1 },
			func([]float64) float64 { return -1 },
		},
		Lower: []float64{0, 0},
		Upper: []float64{1, 1},
	}
	rep, err := ActiveSetSQP(p, []float64{0.5, 0.5}, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.X[0] != 0 || rep.X[1] != 0 {
		t.Fatalf("one-step trajectory changed: X = %v, want (0, 0); the eval pin below is stale", rep.X)
	}
	want := (1 + 2*n + m + 2*n*m) + (1 + m) + (n + n*m) + m
	if rep.FuncEvals != want {
		t.Errorf("FuncEvals = %d, want %d (constraints re-evaluated in the line search?)", rep.FuncEvals, want)
	}
}

// TestGradientSliverBothProbesInfeasible: with both finite-difference
// probes in the Infeasible region, the synthetic slope must push the
// descent direction −g toward the box interior — not freeze the axis at
// g=0 as the old code did.
func TestGradientSliverBothProbesInfeasible(t *testing.T) {
	infeasibleEverywhere := func([]float64) float64 { return Infeasible }
	p := &Problem{F: infeasibleEverywhere, Lower: []float64{0, 0}, Upper: []float64{1, 1}}
	evals := 0

	// Point near the lower bound on axis 0, near the upper bound on axis 1.
	g := p.gradient((*Problem).eval, []float64{0.2, 0.8}, 1.0, 1, &evals)
	if g[0] != -sliverSlope {
		t.Errorf("g[0] = %g, want %g (−g must point up-axis, away from the lower bound)", g[0], -sliverSlope)
	}
	if g[1] != sliverSlope {
		t.Errorf("g[1] = %g, want %g (−g must point down-axis, away from the upper bound)", g[1], sliverSlope)
	}
}

// TestGradientInfeasibleCurrentUsesBoundedSlope: when the current point
// itself evaluates Infeasible and only one probe is usable, the gradient
// must be the bounded synthetic slope toward the feasible probe — not the
// ±(f − 1e12)/h garbage a raw one-sided quotient would produce.
func TestGradientInfeasibleCurrentUsesBoundedSlope(t *testing.T) {
	p := &Problem{F: func(x []float64) float64 { return x[0] }, Lower: []float64{0}, Upper: []float64{1}}
	evals := 0

	// At the lower bound only the upper probe exists, and it is feasible.
	g := p.gradient((*Problem).eval, []float64{0}, Infeasible, 1, &evals)
	if g[0] != -sliverSlope {
		t.Errorf("upper probe feasible: g = %g, want %g", g[0], -sliverSlope)
	}

	// At the upper bound only the lower probe exists.
	g = p.gradient((*Problem).eval, []float64{1}, Infeasible, 1, &evals)
	if g[0] != sliverSlope {
		t.Errorf("lower probe feasible: g = %g, want %g", g[0], sliverSlope)
	}

	// Feasible current point keeps the genuine one-sided quotient.
	g = p.gradient((*Problem).eval, []float64{0}, 0, 1, &evals)
	if math.Abs(g[0]-1) > 1e-6 {
		t.Errorf("feasible one-sided quotient: g = %g, want 1", g[0])
	}
}

// TestTraceHookAllMethods checks that every iterative method emits
// per-iteration records with its own method tag and in-bounds iterates.
func TestTraceHookAllMethods(t *testing.T) {
	for _, m := range methods() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			p := conformanceProblem()
			var recs []TraceRecord
			_, err := m.run(p, []float64{3, 0}, Options{
				MaxIter: 400,
				Trace:   func(rec TraceRecord) { recs = append(recs, rec) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatal("no trace records emitted")
			}
			prevIter := 0
			for _, rec := range recs {
				if rec.Method != m.name {
					t.Fatalf("record method %q, want %q", rec.Method, m.name)
				}
				if rec.Iter < prevIter {
					t.Fatalf("iteration numbers went backwards: %d after %d", rec.Iter, prevIter)
				}
				prevIter = rec.Iter
				if len(rec.X) != p.Dim() {
					t.Fatalf("record X has %d entries, want %d", len(rec.X), p.Dim())
				}
			}
		})
	}
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 1; i <= 10; i++ {
		ring.Record(TraceRecord{Method: "sqp", Iter: i, F: float64(i)})
	}
	if ring.Total() != 10 {
		t.Errorf("Total = %d, want 10", ring.Total())
	}
	recs := ring.Records()
	if len(recs) != 4 {
		t.Fatalf("len(Records) = %d, want 4", len(recs))
	}
	for k, rec := range recs {
		if want := 7 + k; rec.Iter != want {
			t.Errorf("Records[%d].Iter = %d, want %d (oldest-first order)", k, rec.Iter, want)
		}
	}

	var buf bytes.Buffer
	ring.Record(TraceRecord{
		Method: "sqp", Iter: 11, X: []float64{1, 2}, F: 3,
		MaxViolation: math.NaN(), StepNorm: 0.5, Alpha: math.NaN(),
	})
	if err := ring.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sqp") || !strings.Contains(out, "11") {
		t.Errorf("dump missing expected fields:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("dump should render NaN fields as '-':\n%s", out)
	}
}

// TestTraceRingConcurrent exercises the ring from parallel writers; the
// -race gate gives this test its teeth.
func TestTraceRingConcurrent(t *testing.T) {
	ring := NewTraceRing(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ring.Record(TraceRecord{Method: "sqp", Iter: i})
			}
		}(w)
	}
	wg.Wait()
	if ring.Total() != 400 {
		t.Errorf("Total = %d, want 400", ring.Total())
	}
	if len(ring.Records()) != 16 {
		t.Errorf("len(Records) = %d, want 16", len(ring.Records()))
	}
}

// TestMultiStartTraceConcurrent drives the trace hook through a
// multistart launch whose probes fan out on four workers; the hook must
// see records without racing (enforced by the -race gate).
func TestMultiStartTraceConcurrent(t *testing.T) {
	p := conformanceProblem()
	ring := NewTraceRing(64)
	starts := [][]float64{{3, 0}, {0, 3}, {-4, -4}, {4, 4}}
	_, err := MultiStart(ActiveSetSQP, p, starts, Options{Workers: 4, Trace: ring.Record})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Error("multistart emitted no trace records")
	}
}

// TestInteriorPointHonestConvergence: the interior-point method must not
// claim convergence when its final barrier subproblem ran out of budget
// (the old code reported Converged=true unconditionally).
func TestInteriorPointHonestConvergence(t *testing.T) {
	// A well-behaved bowl does converge, with the claim backed by the
	// stop reason.
	p := &Problem{F: bowl(1.5, -0.5), Lower: []float64{-5, -5}, Upper: []float64{5, 5}}
	rep, err := InteriorPoint(p, []float64{4, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Stopped != StopConverged {
		t.Errorf("bowl: Converged=%t Stopped=%s, want converged", rep.Converged, rep.Stopped)
	}

	// A cancelled run must never carry a convergence claim.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err = InteriorPoint(p, []float64{4, 4}, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged || rep.Stopped != StopCancelled {
		t.Errorf("cancelled: Converged=%t Stopped=%s", rep.Converged, rep.Stopped)
	}
}
