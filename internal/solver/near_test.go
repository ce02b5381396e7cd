package solver

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNearContract pins Problem.Near for every method, at one worker and
// at four. The solver calls Near(x, nil) first with the clamped start and
// then once per accepted iterate, the same sequence Options.Trace
// reports, and every F and Cons evaluation goes through the functions of
// the latest such call, or of a reflection: Near(x, up) with x that
// latest anchor and up one step up one axis, whose functions answer only
// the matching lower probe, one step down the same axis.
func TestNearContract(t *testing.T) {
	base := conformanceProblem()
	// (9, −7) lies outside the box; clamped it is the corner (5, −5).
	x0, clamped := []float64{9, -7}, []float64{5, -5}
	for _, m := range methods() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", m.name, workers), func(t *testing.T) {
				var latest, stale, direct, misplaced, reflections atomic.Int64
				var mu sync.Mutex
				var anchors, iterates [][]float64
				p := *base
				p.F = func(x []float64) float64 { direct.Add(1); return base.F(x) }
				p.Cons = []Func{func(x []float64) float64 { direct.Add(1); return base.Cons[0](x) }}
				p.Near = func(x, up []float64) (Func, []Func) {
					mu.Lock()
					defer mu.Unlock()
					if up == nil {
						anchors = append(anchors, append([]float64(nil), x...))
						gen := latest.Add(1)
						check := func([]float64) {
							if latest.Load() != gen {
								stale.Add(1)
							}
						}
						f := func(x []float64) float64 { check(x); return base.F(x) }
						c := func(x []float64) float64 { check(x); return base.Cons[0](x) }
						return f, []Func{c}
					}
					reflections.Add(1)
					axis := -1
					for i := range x {
						if up[i] != x[i] {
							if axis >= 0 {
								misplaced.Add(1)
							}
							axis = i
						}
					}
					if !reflect.DeepEqual(x, anchors[len(anchors)-1]) || axis < 0 || up[axis] < x[axis] {
						misplaced.Add(1)
						axis = 0
					}
					gen := latest.Load()
					check := func(y []float64) {
						if latest.Load() != gen {
							stale.Add(1)
						}
						for i := range y {
							if i == axis && !(y[i] < x[i]) || i != axis && y[i] != x[i] {
								misplaced.Add(1)
							}
						}
					}
					f := func(y []float64) float64 { check(y); return base.F(y) }
					c := func(y []float64) float64 { check(y); return base.Cons[0](y) }
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
				if n := misplaced.Load(); n != 0 {
					t.Errorf("%d reflections or their evaluations were off the lower probe of the latest anchor", n)
				}
				if reflections.Load() == 0 {
					t.Error("no lower probe was anchored on its upper probe's reflection")
				}
				if len(iterates) == 0 {
					t.Fatal("the solve accepted no iterate")
				}
				want := append([][]float64{clamped}, iterates...)
				if !reflect.DeepEqual(anchors, want) {
					t.Errorf("Near(x, nil) saw %v, want the clamped start then the traced iterates %v", anchors, want)
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
	anchored.Near = func(_, _ []float64) (Func, []Func) { return anchored.F, anchored.Cons }
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
