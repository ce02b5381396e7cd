package solver

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestNearContract pins Problem.Near for every method: the solver calls
// it first with the clamped start and then once per accepted iterate,
// the same sequence Options.Trace reports, and every F and Cons
// evaluation after the first call goes through the functions the latest
// call returned — at one worker and at four.
func TestNearContract(t *testing.T) {
	base := conformanceProblem()
	// (9, −7) lies outside the box; clamped it is the corner (5, −5).
	x0, clamped := []float64{9, -7}, []float64{5, -5}
	for _, m := range methods() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", m.name, workers), func(t *testing.T) {
				var latest, stale, direct atomic.Int64
				var anchors, iterates [][]float64
				p := *base
				p.F = func(x []float64) float64 { direct.Add(1); return base.F(x) }
				p.Cons = []Func{func(x []float64) float64 { direct.Add(1); return base.Cons[0](x) }}
				p.Near = func(x []float64) (Func, []Func) {
					anchors = append(anchors, append([]float64(nil), x...))
					gen := latest.Add(1)
					check := func() {
						if latest.Load() != gen {
							stale.Add(1)
						}
					}
					f := func(x []float64) float64 { check(); return base.F(x) }
					c := func(x []float64) float64 { check(); return base.Cons[0](x) }
					return f, []Func{c}
				}
				opts := Options{Workers: workers, Trace: func(rec TraceRecord) { iterates = append(iterates, rec.X) }}
				if _, err := m.run(&p, x0, opts); err != nil {
					t.Fatal(err)
				}
				if n := direct.Load(); n != 0 {
					t.Errorf("%d evaluations bypassed Near's functions", n)
				}
				if n := stale.Load(); n != 0 {
					t.Errorf("%d evaluations went through an earlier anchor's functions", n)
				}
				if len(iterates) == 0 {
					t.Fatal("the solve accepted no iterate")
				}
				want := append([][]float64{clamped}, iterates...)
				if !reflect.DeepEqual(anchors, want) {
					t.Errorf("Near saw %v, want the clamped start then the traced iterates %v", anchors, want)
				}
			})
		}
	}
}

// TestNilNearMatchesIdentityNear: a Near that hands back the problem's
// own functions changes nothing, so a problem without Near solves exactly
// as the anchored path does — same Report, bit for bit, at every width.
func TestNilNearMatchesIdentityNear(t *testing.T) {
	plain := conformanceProblem()
	anchored := conformanceProblem()
	anchored.Near = func([]float64) (Func, []Func) { return anchored.F, anchored.Cons }
	for _, m := range methods() {
		for _, workers := range []int{1, 4} {
			want, err := m.run(plain, []float64{4, -3}, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.run(anchored, []float64{4, -3}, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/workers=%d: anchored %+v, plain %+v", m.name, workers, got, want)
			}
		}
	}
}
