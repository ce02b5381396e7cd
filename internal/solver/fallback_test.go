package solver_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"oftec/internal/solver"
	"oftec/internal/solver/testutil"
)

// table2Problem is a synthetic scenario with the shape of the paper's
// Table 2 solves: minimize a smooth power-like objective subject to one
// temperature-style constraint plus box bounds. The optimum sits on the
// constraint surface at (2, 1) with objective 3, a point the reference
// grid below hits exactly.
func table2Problem() *solver.Problem {
	return &solver.Problem{
		F: func(x []float64) float64 { return 0.5*x[0]*x[0] + x[1]*x[1] },
		Cons: []solver.Func{
			func(x []float64) float64 { return 3 - x[0] - x[1] },
		},
		Lower: []float64{0, 0},
		Upper: []float64{4, 2},
	}
}

func table2Start() []float64 { return []float64{3.5, 1.8} }

// gridReference solves the scenario by dense grid search, the repo's
// ground-truth comparator.
func gridReference(t *testing.T) solver.Report {
	t.Helper()
	ref, err := testutil.GridSearch(table2Problem(), 201, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Feasible(1e-9) {
		t.Fatalf("grid reference infeasible: %+v", ref)
	}
	return ref
}

// faultedSQPChain is the default chain with its SQP stage rewired to run
// against the faulty problem: the scenario where the first method's
// evaluations start misbehaving mid-solve while the model itself is fine.
func faultedSQPChain(faulty *solver.Problem) []solver.NamedRunner {
	chain := solver.DefaultFallbackChain()
	chain[0] = solver.NamedRunner{
		Name: "sqp",
		Run: func(_ *solver.Problem, x0 []float64, opts solver.Options) (solver.Report, error) {
			return solver.ActiveSetSQP(faulty, x0, opts)
		},
	}
	return chain
}

// TestFallbackGracefulDegradation is the acceptance scenario: SQP wrapped
// to fail after N evaluations must not sink the solve — the chain falls
// through to the later stages and still lands within 1e-6 of the
// grid-search reference, with merged evaluation counts and a recorded
// stop reason.
func TestFallbackGracefulDegradation(t *testing.T) {
	ref := gridReference(t)

	for _, mode := range []struct {
		name string
		mode testutil.FaultMode
	}{
		{"fail", testutil.FaultFail},
		{"nan", testutil.FaultNaN},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			faulty, fault := testutil.NewFault(table2Problem(), mode.mode, 30)
			rep, err := solver.Fallback(faultedSQPChain(faulty), table2Problem(), table2Start(), solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !fault.Tripped() {
				t.Fatalf("fault never triggered (only %d evaluations)", fault.Calls())
			}
			if !rep.Feasible(1e-6) {
				t.Fatalf("degraded solve infeasible: violation %g", rep.MaxViolation)
			}
			if rep.F > ref.F+1e-6 {
				t.Errorf("degraded solve F = %g, want ≤ grid reference %g + 1e-6", rep.F, ref.F)
			}
			if rep.Stopped == solver.StopUnset {
				t.Error("fallback result left Stopped unset")
			}
			// FuncEvals must merge every stage, including the faulted one.
			if rep.FuncEvals <= fault.Calls() {
				t.Errorf("FuncEvals = %d not merged across stages (faulted stage alone issued %d)",
					rep.FuncEvals, fault.Calls())
			}

			// The degraded answer must match an unfaulted chain.
			plain, err := solver.Fallback(solver.DefaultFallbackChain(), table2Problem(), table2Start(), solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rep.F-plain.F) > 1e-6 {
				t.Errorf("degraded F = %g differs from unfaulted chain F = %g", rep.F, plain.F)
			}
		})
	}
}

// TestFallbackCleanFirstStageWins: with nothing failing, the chain must
// stop after its first stage and return exactly that stage's report.
func TestFallbackCleanFirstStageWins(t *testing.T) {
	p := table2Problem()
	single, err := solver.ActiveSetSQP(p, table2Start(), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !single.Converged || !single.Feasible(1e-6) {
		t.Fatalf("premise broken: plain SQP no longer converges feasibly (%+v)", single)
	}
	chained, err := solver.Fallback(solver.DefaultFallbackChain(), p, table2Start(), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, chained) {
		t.Errorf("clean chain diverged from its first stage:\nsingle:  %+v\nchained: %+v", single, chained)
	}
}

// TestFallbackSurvivesPanickingStage: a stage that panics is recorded and
// skipped, not propagated.
func TestFallbackSurvivesPanickingStage(t *testing.T) {
	chain := []solver.NamedRunner{
		{Name: "boom", Run: func(*solver.Problem, []float64, solver.Options) (solver.Report, error) {
			panic("evaluation model exploded")
		}},
		{Name: "sqp", Run: solver.ActiveSetSQP},
	}
	rep, err := solver.Fallback(chain, table2Problem(), table2Start(), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible(1e-6) || !rep.Converged {
		t.Errorf("chain did not recover from the panicking stage: %+v", rep)
	}
}

// TestFallbackAllStagesFail: when every stage errors, the first error
// surfaces.
func TestFallbackAllStagesFail(t *testing.T) {
	chain := []solver.NamedRunner{
		{Name: "boom", Run: func(*solver.Problem, []float64, solver.Options) (solver.Report, error) {
			panic("broken")
		}},
	}
	if _, err := solver.Fallback(chain, table2Problem(), table2Start(), solver.Options{}); err == nil {
		t.Fatal("want an error when every stage fails")
	}
}

// TestFallbackCancelledStopsChain: once a stage reports cancellation the
// chain must stop launching stages and report the launch as cancelled.
func TestFallbackCancelledStopsChain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	launches := 0
	counting := func(run solver.Runner) solver.Runner {
		return func(p *solver.Problem, x0 []float64, opts solver.Options) (solver.Report, error) {
			launches++
			return run(p, x0, opts)
		}
	}
	chain := []solver.NamedRunner{
		{Name: "sqp", Run: counting(solver.ActiveSetSQP)},
		{Name: "interior", Run: counting(solver.InteriorPoint)},
	}
	rep, err := solver.Fallback(chain, table2Problem(), table2Start(), solver.Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped != solver.StopCancelled || rep.Converged {
		t.Errorf("Stopped=%s Converged=%t, want a cancelled launch", rep.Stopped, rep.Converged)
	}
	if launches != 1 {
		t.Errorf("chain launched %d stages after cancellation, want 1", launches)
	}
}

// TestFallbackHangReleasedByTimeout documents the cancellation contract
// for hung evaluations: a context deadline cannot interrupt an evaluation
// already in flight (they are black boxes), but once the evaluation
// returns, the solver stops at the next iteration boundary.
func TestFallbackHangReleasedByTimeout(t *testing.T) {
	faulty, fault := testutil.NewFault(table2Problem(), testutil.FaultHang, 10)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan solver.Report, 1)
	go func() {
		rep, err := solver.Fallback(faultedSQPChain(faulty), table2Problem(), table2Start(), solver.Options{Ctx: ctx})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()

	// Simulate the watchdog: give up on the wedged solve, then the
	// wedged evaluation eventually returns.
	cancel()
	fault.Release()
	rep := <-done
	if rep.Stopped != solver.StopCancelled {
		t.Errorf("Stopped = %s, want %s", rep.Stopped, solver.StopCancelled)
	}
}

// TestFaultWrapperCounts sanity-checks the test helper itself.
func TestFaultWrapperCounts(t *testing.T) {
	faulty, fault := testutil.NewFault(table2Problem(), testutil.FaultFail, 2)
	x := []float64{1, 1}
	if got := faulty.F(x); got != 1.5 {
		t.Errorf("pre-fault objective = %g, want 1.5", got)
	}
	if got := faulty.Cons[0](x); got != 1 {
		t.Errorf("pre-fault constraint = %g, want 1", got)
	}
	if fault.Tripped() {
		t.Error("fault tripped early")
	}
	if got := faulty.F(x); got != solver.Infeasible {
		t.Errorf("post-fault objective = %g, want Infeasible", got)
	}
	if !fault.Tripped() || fault.Calls() != 3 {
		t.Errorf("Tripped=%t Calls=%d, want tripped after 3 calls", fault.Tripped(), fault.Calls())
	}
}
