package solver

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// probeProblem gives every finite-difference branch an axis of its own,
// each with a feasible window independent of the other axes, so probing
// one axis never disturbs another. At probePoint axis 0 is interior
// (central difference), axis 1 sits on its upper bound (one-sided at the
// box edge), axis 2 sits just below a wall past which F is Infeasible
// (one-sided at an Infeasible probe), axis 3 is a feasible sliver
// narrower than its step (both probes Infeasible), and axis 4 is pinned.
// F is a pure function, so it is safe for concurrent probes.
func probeProblem() *Problem {
	return &Problem{
		F: func(x []float64) float64 {
			if x[2] > 0.5 || math.Abs(x[3]-0.3) > 1e-9 {
				return Infeasible
			}
			return x[0]*x[0] + 3*x[1] + math.Sin(x[2]) + x[3] + x[4]*x[4]
		},
		Lower: []float64{-1, -1, -1, -1, 2},
		Upper: []float64{1, 1, 1, 1, 2},
	}
}

var probePoint = []float64{0.2, 1, 0.5 - 1e-5, 0.3, 2}

// TestGradientParallelMatchesSerial: the planned probes evaluated on four
// workers give the serial loop's gradient and evaluation count, on every
// branch of the combine step — with a feasible current point and with an
// Infeasible one (the bounded one-sided slopes).
func TestGradientParallelMatchesSerial(t *testing.T) {
	p := probeProblem()
	for _, fx := range []float64{p.F(probePoint), Infeasible} {
		var serialEvals, parEvals int
		serial := p.gradient((*Problem).eval, probePoint, fx, 1, &serialEvals)
		par := p.gradient((*Problem).eval, probePoint, fx, 4, &parEvals)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("fx=%g: gradients differ: serial %v, parallel %v", fx, serial, par)
		}
		if serialEvals != parEvals {
			t.Errorf("fx=%g: evaluation counts differ: serial %d, parallel %d", fx, serialEvals, parEvals)
		}
		// Two probes on axes 0, 2 and 3, one on axis 1, none on the pinned
		// axis 4.
		if serialEvals != 7 {
			t.Errorf("fx=%g: %d evaluations, want 7 (the plan lost a branch)", fx, serialEvals)
		}
		// Axis 3's sliver lies nearer its upper bound, so −g points down.
		if serial[3] != sliverSlope || serial[4] != 0 {
			t.Errorf("fx=%g: sliver/pinned derivatives %g, %g, want %g, 0", fx, serial[3], serial[4], sliverSlope)
		}
	}
}

// TestSolversParallelMatchesSerial: every gradient-based method returns
// the identical Report at widths 1 and 4 — trust region's per-probe
// penalty counting and interior point's barrier probes included — on a
// plain problem and on one with a pinned axis.
func TestSolversParallelMatchesSerial(t *testing.T) {
	pinned, _ := pinnedAndReduced()
	problems := map[string]struct {
		p  *Problem
		x0 []float64
	}{
		"bowl":   {conformanceProblem(), []float64{3, 0}},
		"pinned": {pinned, []float64{0, 0, 5}},
	}
	for _, m := range gradMethods() {
		for name, pc := range problems {
			serial, err := m.run(pc.p, pc.x0, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := m.run(pc.p, pc.x0, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s/%s: reports differ:\nserial   %+v\nparallel %+v", m.name, name, serial, par)
			}
		}
	}
}

// TestProbePanicParallelMatchesSerial: a probe that panics surfaces as a
// panic on the caller's goroutine at every width, where Fallback's stage
// recovery can catch it, instead of killing the process from a worker.
func TestProbePanicParallelMatchesSerial(t *testing.T) {
	p := &Problem{Lower: []float64{0, 0, 0, 0}, Upper: []float64{4, 4, 4, 4}}
	x := []float64{2, 2, 2, 2}
	pairs := make([]pair, len(x))
	for i := range pairs {
		pairs[i] = pair{h: 1, up: true, down: true}
	}
	boom := func(_ *Problem, x []float64, evals *int) float64 {
		*evals++
		if x[2] == 1 {
			panic("model exploded")
		}
		return x[0]
	}
	for _, workers := range []int{1, 4} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			evals := 0
			p.probePairs(boom, x, append([]pair(nil), pairs...), workers, &evals)
			return ""
		}()
		if !strings.Contains(msg, "model exploded") {
			t.Errorf("workers=%d: caller saw %q, want the probe's panic", workers, msg)
		}
	}
}
