package core

import (
	"context"
	"math"
	"testing"

	"oftec/internal/solver"
)

// TestFallbackOptionMatchesPlainWhenHealthy: with a well-behaved model
// the chain stops after its first (selected-method) stage, so the chosen
// operating point is identical to the plain run.
func TestFallbackOptionMatchesPlainWhenHealthy(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	plain, err := s.Run(Options{Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := s.Run(Options{Mode: ModeHybrid, Fallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.Feasible {
		t.Fatal("fallback run infeasible on a mild benchmark")
	}
	if math.Abs(fb.Omega-plain.Omega) > 1e-9 || math.Abs(fb.ITEC-plain.ITEC) > 1e-9 {
		t.Errorf("fallback operating point (%g, %g) differs from plain (%g, %g)",
			fb.Omega, fb.ITEC, plain.Omega, plain.ITEC)
	}
	if fb.Opt1Report.Stopped == solver.StopUnset {
		t.Error("fallback run left Opt1Report.Stopped unset")
	}
}

// TestFallbackChainShape pins the ladder construction: selected method
// first, default chain after it, no duplicate stages.
func TestFallbackChainShape(t *testing.T) {
	cases := []struct {
		method Method
		want   []string
	}{
		{MethodSQP, []string{"sqp", "interior"}},
		{MethodInteriorPoint, []string{"interior", "sqp"}},
		{MethodTrustRegion, []string{"trust", "sqp", "interior"}},
	}
	for _, tc := range cases {
		chain := tc.method.fallbackChain()
		var got []string
		for _, stage := range chain {
			got = append(got, stage.Name)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%v: chain %v, want %v", tc.method, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%v: chain %v, want %v", tc.method, got, tc.want)
				break
			}
		}
	}
}

// TestRunCancelledContext: a pre-cancelled solver context must not hang
// or error the run, whichever method runs it and whether it goes through
// the fallback chain, the multistart launch or both; Algorithm 1
// finishes with the best point each phase had in hand, and the reports
// say the solves were cancelled.
func TestRunCancelledContext(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for m := range methodNames {
		for _, v := range []struct {
			name                 string
			fallback, multiStart bool
		}{
			{"plain", false, false},
			{"fallback", true, false},
			{"multistart", false, true},
			{"fallback+multistart", true, true},
		} {
			method := Method(m)
			t.Run(methodNames[m]+"/"+v.name, func(t *testing.T) {
				opts := Options{Mode: ModeHybrid, Method: method, Fallback: v.fallback, MultiStart: v.multiStart}
				opts.Solver.Ctx = ctx
				out, err := s.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if out.Opt1Report.Stopped != solver.StopCancelled {
					t.Errorf("Opt1Report.Stopped = %s, want %s", out.Opt1Report.Stopped, solver.StopCancelled)
				}
				if out.Omega == 0 && out.ITEC == 0 {
					t.Error("cancelled run returned a zero operating point instead of best-so-far")
				}
			})
		}
	}
}

// TestRunTraceHook: the solver trace plumbs through core.Options and
// records the optimization trajectory of Algorithm 1.
func TestRunTraceHook(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	ring := solver.NewTraceRing(solver.DefaultTraceCapacity)
	opts := Options{Mode: ModeHybrid}
	opts.Solver.Trace = ring.Record
	if _, err := s.Run(opts); err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("no trace records reached the hook through core.Options")
	}
	for _, rec := range ring.Records() {
		if rec.Method != "sqp" {
			t.Fatalf("record method %q, want sqp", rec.Method)
		}
	}
}
