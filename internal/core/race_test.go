package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"oftec/internal/backend"
)

// These tests exist for `go test -race`: they hammer the shared
// evaluation cache from concurrent goroutines so the locking in the
// scalar and zoned evaluation paths is actually exercised under the
// race detector, not just under single-threaded unit tests.

// TestSystemCacheConcurrent drives overlapping operating points through
// one shared System from many goroutines: hits and misses interleave,
// and every result must be identical to the single-threaded answer.
func TestSystemCacheConcurrent(t *testing.T) {
	s := benchSystem(t, "CRC32")
	points := []struct{ omega, itec float64 }{
		{100, 0}, {100, 0.5}, {200, 1}, {300, 0}, {300, 1.5}, {150, 0.25},
	}
	// Single-threaded reference answers (also pre-warms part of the cache,
	// so the workers mix hits with concurrent misses).
	want := make([]float64, len(points))
	for i, p := range points[:3] {
		r, err := evalAt(s, p.omega, p.itec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.MaxChipTemp
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(points); i++ {
				p := points[(w+i)%len(points)]
				r, err := evalAt(s, p.omega, p.itec)
				if err != nil {
					t.Errorf("Evaluate(%g, %g): %v", p.omega, p.itec, err)
					return
				}
				if r.Runaway {
					t.Errorf("Evaluate(%g, %g): unexpected runaway", p.omega, p.itec)
				}
			}
		}(w)
	}
	wg.Wait()

	for i, p := range points[:3] {
		r, err := evalAt(s, p.omega, p.itec)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxChipTemp != want[i] {
			t.Errorf("point %d: cached MaxChipTemp %g != reference %g", i, r.MaxChipTemp, want[i])
		}
	}
}

// TestZonedCacheConcurrent hammers the zoned evaluation path the same
// way: RunZoned binds a zoned evaluator into the system's shared cache
// and the solver's evaluations flow through that one binding, so the
// cache must tolerate concurrent zoned traffic.
func TestZonedCacheConcurrent(t *testing.T) {
	s := benchSystem(t, "CRC32")
	assign, k := ClusterZones()
	zoner, ok := s.Backend().(backend.Zoner)
	if !ok {
		t.Fatalf("backend %q cannot zone", s.Backend().Name())
	}
	zoning, err := zoner.NewZoning(assign, k)
	if err != nil {
		t.Fatal(err)
	}
	zev, err := zoner.WithZoning(zoning)
	if err != nil {
		t.Fatal(err)
	}
	bnd := s.cache.Bind(zev)

	vectors := [][]float64{
		{100, 0, 0, 0},
		{150, 0.5, 0, 0.5},
		{200, 0, 1, 0},
		{250, 0.5, 0.5, 0.5},
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(vectors); i++ {
				x := vectors[(w+i)%len(vectors)]
				r, err := bnd.Evaluate(context.Background(), backend.OpPoint{Omega: x[0], Currents: x[1:]}, nil)
				if err != nil {
					t.Errorf("evaluate(%v): %v", x, err)
					return
				}
				if r == nil {
					t.Errorf("evaluate(%v): nil result", x)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentRunsShareOneSystem runs Algorithm 1 four times at once on
// one System, as oftecd runs optimize and Pareto requests concurrently on
// one pooled chip: finite differences on two workers, two runs at the
// default T_max and two 5 K below it. Every point the runs share is
// solved from the same anchor, whichever run leads the solve, so each
// outcome, Runtime aside, is DeepEqual to a serial run of its options on
// a fresh System.
func TestConcurrentRunsShareOneSystem(t *testing.T) {
	tmax := testConfig().TMax
	opts := []Options{
		{Mode: ModeHybrid, Workers: 2},
		{Mode: ModeHybrid, Workers: 2, TMax: tmax - 5},
	}
	want := make([]*Outcome, len(opts))
	for i, o := range opts {
		o.Workers = 1
		out, err := benchSystem(t, "Quicksort").Run(o)
		if err != nil {
			t.Fatal(err)
		}
		out.Runtime = 0
		want[i] = out
	}
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("both thresholds reach one outcome; the runs would share every point")
	}

	s := benchSystem(t, "Quicksort")
	got := make([]*Outcome, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := s.Run(opts[g%len(opts)])
			if err != nil {
				t.Error(err)
				return
			}
			out.Runtime = 0
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range got {
		if out != nil && !reflect.DeepEqual(out, want[g%len(opts)]) {
			t.Errorf("run %d (T_max %g K): concurrent outcome differs from the serial run:\n got %v, %+v\nwant %v, %+v",
				g, opts[g%len(opts)].TMax, out, out.Opt1Report, want[g%len(opts)], want[g%len(opts)].Opt1Report)
		}
	}
}
