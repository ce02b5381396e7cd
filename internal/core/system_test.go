package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oftec/internal/backend"
	"oftec/internal/evalcache"
	"oftec/internal/thermal"
)

// evalAt evaluates the one-zone point (ω, I) through s's shared cache.
func evalAt(s *System, omega, itec float64) (*thermal.Result, error) {
	return s.EvaluateContext(context.Background(), nil, backend.Scalar(omega, itec), nil)
}

// These tests pin the two concurrency contracts of the evaluation cache:
// concurrent misses on one operating point coalesce onto a single
// underlying thermal solve (singleflight), and eviction is bounded — a
// key that stays hot is never discarded, no matter how much distinct
// traffic flows through.

// TestEvaluateSingleflight launches M goroutines at one operating point
// and asserts exactly one model.Evaluate runs underneath. The leader is
// held inside the backend's hook until every other goroutine has had time to
// arrive, so the window where the old code duplicated solves is wide
// open; late arrivals that miss the window hit the filled cache instead,
// so the single-solve invariant holds regardless of scheduling.
func TestEvaluateSingleflight(t *testing.T) {
	var solves atomic.Int64
	release := make(chan struct{})
	s := benchSystemWith(t, "CRC32", testConfig(), 0, func(omega, itec float64) {
		solves.Add(1)
		<-release
	})

	const workers = 16
	var entered atomic.Int64
	var wg sync.WaitGroup
	results := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			entered.Add(1)
			r, err := evalAt(s, 123.456, 1.25)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = r.MaxChipTemp
		}(w)
	}
	for entered.Load() < workers {
		time.Sleep(time.Millisecond)
	}
	// Give the stragglers a beat to park on the in-flight solve, then let
	// the leader finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Fatalf("%d goroutines on one operating point triggered %d model solves, want exactly 1", workers, n)
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d saw MaxChipTemp %g, worker 0 saw %g", w, results[w], results[0])
		}
	}
	stats := s.CacheStats()
	if stats.Misses != 1 {
		t.Errorf("stats.Misses = %d, want 1", stats.Misses)
	}
	if stats.Hits+stats.Waits != workers-1 {
		t.Errorf("stats.Hits+Waits = %d, want %d", stats.Hits+stats.Waits, workers-1)
	}
}

// TestHotKeySurvivesEviction is the regression test for the old
// full-map wipe: under sustained distinct-key pressure that forces many
// rotations, a key touched regularly must stay cached (one solve, ever).
func TestHotKeySurvivesEviction(t *testing.T) {
	const hotOmega, hotITEC = 200.0, 1.0
	var hotSolves atomic.Int64
	// Tiny generations so a few dozen solves force rotations.
	s := benchSystemWith(t, "CRC32", testConfig(), 3, func(omega, itec float64) {
		if omega == hotOmega && itec == hotITEC {
			hotSolves.Add(1)
		}
	})

	if _, err := evalAt(s, hotOmega, hotITEC); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 18; i++ {
		if _, err := evalAt(s, 150+10*float64(i), 0.5); err != nil {
			t.Fatal(err)
		}
		if _, err := evalAt(s, hotOmega, hotITEC); err != nil {
			t.Fatal(err)
		}
	}

	stats := s.CacheStats()
	if stats.Rotations < 3 {
		t.Fatalf("only %d rotations; the test did not generate eviction pressure", stats.Rotations)
	}
	if n := hotSolves.Load(); n != 1 {
		t.Errorf("hot key was re-solved %d times under eviction pressure, want 1", n)
	}
	if total := s.cache.Len(); total > 2*s.cache.Capacity() {
		t.Errorf("cache holds %d entries, bound is %d", total, 2*s.cache.Capacity())
	}
}

// TestEvaluateMixedTrafficStress hammers one System with interleaved
// hits, coalesced misses, and rotations (capacity far below the key-set
// size) from many goroutines — the traffic pattern of a parallel surface
// sweep. Run under -race this exercises every lock transition; the
// results must still match a fresh serial system exactly.
func TestEvaluateMixedTrafficStress(t *testing.T) {
	// The thermal layer memoizes repeated operating points, which makes
	// cache misses orders of magnitude faster than a real cold solve; on a
	// single CPU a worker then churns the whole small cache within one
	// scheduler slice and no overlap (hits, waits) can occur. Restore
	// solver-scale miss latency so the stress keeps mixing the traffic
	// classes it is meant to exercise.
	s := benchSystemWith(t, "CRC32", testConfig(), 4, func(omega, itec float64) { time.Sleep(200 * time.Microsecond) })

	var points []struct{ omega, itec float64 }
	for i := 0; i < 24; i++ {
		points = append(points, struct{ omega, itec float64 }{
			omega: 120 + 15*float64(i%12),
			itec:  0.25 * float64(i/12),
		})
	}

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(points); i++ {
				p := points[(3*w+i)%len(points)]
				r, err := evalAt(s, p.omega, p.itec)
				if err != nil {
					t.Errorf("Evaluate(%g, %g): %v", p.omega, p.itec, err)
					return
				}
				if r == nil {
					t.Errorf("Evaluate(%g, %g): nil result", p.omega, p.itec)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	stats := s.CacheStats()
	if stats.Rotations == 0 {
		t.Error("stress produced no rotations; eviction path not exercised")
	}
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Errorf("stress traffic not mixed: %+v", stats)
	}

	// Cross-check a sample of points against an independent serial system.
	ref := benchSystem(t, "CRC32")
	for _, p := range points[:6] {
		want, err := evalAt(ref, p.omega, p.itec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evalAt(s, p.omega, p.itec)
		if err != nil {
			t.Fatal(err)
		}
		if got.MaxChipTemp != want.MaxChipTemp {
			t.Errorf("point (%g, %g): MaxChipTemp %g != serial reference %g",
				p.omega, p.itec, got.MaxChipTemp, want.MaxChipTemp)
		}
	}
}

// TestCacheStatsAccounting pins the counter semantics on a serial
// traffic pattern where the exact values are known.
func TestCacheStatsAccounting(t *testing.T) {
	s := benchSystem(t, "CRC32")
	if _, err := evalAt(s, 100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := evalAt(s, 100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := evalAt(s, 200, 1); err != nil {
		t.Fatal(err)
	}
	stats := s.CacheStats()
	want := CacheStats{Hits: 1, Misses: 2}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
}

// TestZonedBindingMemoized pins the service-facing cache contract: two
// zoned evaluations of one operating point under one zoning share a
// single key space, so the second is a cache hit, not a fresh miss in a
// fresh binding (the historical behavior — RunZoned opened a new key
// space per call, so cross-request zoned traffic never coalesced).
func TestZonedBindingMemoized(t *testing.T) {
	s := benchSystem(t, "CRC32")
	m := testModelOf(t, s)
	assign, nz := ClusterZones()
	z, err := m.NewZoning(assign, nz)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	cur := []float64{1, 0.5, 2}
	before := s.CacheStats()
	r1, err := s.EvaluateContext(ctx, z, backend.OpPoint{Omega: 300, Currents: cur}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.EvaluateContext(ctx, z, backend.OpPoint{Omega: 300, Currents: cur}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("repeated zoned evaluation did not share one cache entry")
	}
	d := s.CacheStats()
	if d.Misses-before.Misses != 1 || d.Hits-before.Hits != 1 {
		t.Errorf("stats delta = %+v vs %+v, want exactly 1 miss + 1 hit", d, before)
	}

	// RunZoned must reuse the same memoized binding: its evaluation of
	// the same zoning shares cache state with the direct path.
	if bnd, err := s.binding(z); err != nil {
		t.Fatal(err)
	} else if bnd2, err2 := s.binding(z); err2 != nil || bnd != bnd2 {
		t.Errorf("zoned binding not memoized: %p vs %p (err %v)", bnd, bnd2, err2)
	}
}

// TestZonedBindingsBounded: a System keeps at most maxZonedBindings zoned
// bindings however many zonings it is asked about, from several
// goroutines at once, and the one-zone binding survives every clear.
func TestZonedBindingsBounded(t *testing.T) {
	s := benchSystem(t, "CRC32")
	m := testModelOf(t, s)
	scalar, err := s.binding(nil)
	if err != nil {
		t.Fatal(err)
	}
	assign, nz := ClusterZones()
	ctx := context.Background()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*maxZonedBindings/workers; i++ {
				z, err := m.NewZoning(assign, nz)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.EvaluateContext(ctx, z, backend.OpPoint{Omega: 300, Currents: []float64{1, 0.5, 2}}, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.EvaluateContext(ctx, nil, backend.Scalar(300, 1), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	zoned := 0
	s.bindings.Range(func(k, _ any) bool {
		if k.(*thermal.Zoning) != nil {
			zoned++
		}
		return true
	})
	if zoned > maxZonedBindings {
		t.Errorf("System keeps %d zoned bindings, over its bound %d", zoned, maxZonedBindings)
	}
	if bnd, err := s.binding(nil); err != nil || bnd != scalar {
		t.Errorf("one-zone binding replaced: %p vs %p (err %v)", bnd, scalar, err)
	}
}

// TestSharedCacheSystems pins NewSystemShared: two systems bound to one
// cache share capacity and statistics, while their coincident operating
// points stay isolated in separate key spaces.
func TestSharedCacheSystems(t *testing.T) {
	cache := evalcache.New(0)
	a := NewSystemShared(benchSystem(t, "CRC32").Backend(), cache)
	b := NewSystemShared(benchSystem(t, "FFT").Backend(), cache)

	ra, err := evalAt(a, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := evalAt(b, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Error("two chips' coincident operating points aliased one entry")
	}
	if s := cache.Stats(); s.Misses != 2 {
		t.Errorf("shared stats = %+v, want 2 misses pooled in one counter", s)
	}
	if got, want := a.CacheStats(), b.CacheStats(); got != want {
		t.Errorf("shared cache reports different stats per system: %+v vs %+v", got, want)
	}
}
