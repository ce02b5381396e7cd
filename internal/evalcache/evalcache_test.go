package evalcache

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oftec/internal/backend"
	"oftec/internal/thermal"
	"oftec/internal/workload"
)

// fakeEval is a deterministic backend stub: the "solve" encodes the
// operating point into MaxChipTemp so tests can check result identity
// without building a thermal model.
type fakeEval struct {
	solves atomic.Int64
	block  chan struct{} // when non-nil, Evaluate parks until closed
}

func (f *fakeEval) Name() string           { return "fake" }
func (f *fakeEval) Config() thermal.Config { return thermal.Config{} }

func (f *fakeEval) Evaluate(_ context.Context, op backend.OpPoint, _ []float64) (*thermal.Result, error) {
	f.solves.Add(1)
	if f.block != nil {
		<-f.block
	}
	t := op.Omega
	for _, c := range op.Currents {
		t = 10*t + c
	}
	return &thermal.Result{Omega: op.Omega, MaxChipTemp: t}, nil
}

func TestSingleflightCoalesces(t *testing.T) {
	fake := &fakeEval{block: make(chan struct{})}
	c := New(0)
	b := c.Bind(fake)

	var launched sync.WaitGroup
	var done sync.WaitGroup
	const workers = 16
	results := make([]*thermal.Result, workers)
	launched.Add(1)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			if i == 0 {
				// The leader registers the in-flight solve and parks in the
				// fake; release the waiters only once it is committed.
				launched.Done()
			} else {
				launched.Wait()
				// Give the leader time to take the inflight slot; waiters
				// arriving before it would just become their own leaders,
				// which the solve count below would catch.
				time.Sleep(2 * time.Millisecond)
			}
			r, err := b.Evaluate(context.Background(), backend.Scalar(250, 1.5), nil)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	launched.Wait()
	time.Sleep(10 * time.Millisecond)
	close(fake.block)
	done.Wait()

	if n := fake.solves.Load(); n != 1 {
		t.Fatalf("coalesced miss ran %d solves, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d got a different result pointer", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits+s.Waits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+waits", s, workers-1)
	}
}

// TestIncumbentSurvivesEviction is the regression test for the zoned
// cache's historical wipe-everything eviction: a key re-touched between
// rotations must stay cached across any number of rotations, scalar or
// zoned.
func TestIncumbentSurvivesEviction(t *testing.T) {
	for _, k := range []int{1, 4} {
		fake := &fakeEval{}
		c := New(3)
		b := c.Bind(fake)
		ctx := context.Background()

		hot := backend.OpPoint{Omega: 100, Currents: make([]float64, k)}
		for i := range hot.Currents {
			hot.Currents[i] = 0.5 + 0.1*float64(i)
		}
		first, err := b.Evaluate(ctx, hot, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Churn enough distinct points to rotate several times, touching
		// the incumbent between batches the way an optimizer's line
		// searches keep re-testing the best-so-far point. Each batch stays
		// within capacity so at most one rotation happens between touches —
		// the survival guarantee the two-generation scheme makes.
		for batch := 0; batch < 6; batch++ {
			for i := 0; i < 3; i++ {
				cold := backend.OpPoint{Omega: 200 + float64(8*batch+i), Currents: make([]float64, k)}
				if _, err := b.Evaluate(ctx, cold, nil); err != nil {
					t.Fatal(err)
				}
			}
			again, err := b.Evaluate(ctx, hot, nil)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("k=%d: incumbent was evicted and re-solved in batch %d", k, batch)
			}
		}

		s := c.Stats()
		if s.Rotations < 3 {
			t.Errorf("k=%d: churn caused only %d rotations, want ≥ 3", k, s.Rotations)
		}
		if c.Len() > 2*c.Capacity() {
			t.Errorf("k=%d: cache holds %d entries, capacity bound is %d", k, c.Len(), 2*c.Capacity())
		}
	}
}

// TestBindingsDoNotAlias pins the key-space isolation: two bindings with
// coincident operating points must not serve each other's results, even
// when a scalar point and a 1-zone point have equal coordinates.
func TestBindingsDoNotAlias(t *testing.T) {
	ctx := context.Background()
	c := New(0)
	a := c.Bind(&fakeEval{})
	b := c.Bind(&fakeEval{})

	op := backend.Scalar(300, 2)
	ra, err := a.Evaluate(ctx, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Evaluate(ctx, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Error("two bindings shared one cache entry for the same coordinates")
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want two independent misses", s)
	}
}

func TestQuantizedHitsAndStats(t *testing.T) {
	fake := &fakeEval{}
	c := New(0)
	b := c.Bind(fake)
	ctx := context.Background()

	r1, _ := b.Evaluate(ctx, backend.Scalar(100, 1), nil)
	// Last-bit noise quantizes onto the same key.
	r2, _ := b.Evaluate(ctx, backend.Scalar(100+1e-12, 1-1e-12), nil)
	if r1 != r2 {
		t.Error("quantization did not coalesce near-identical points")
	}
	b.Evaluate(ctx, backend.Scalar(100, 2), nil)

	want := Stats{Hits: 1, Misses: 2}
	if s := c.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
	if n := fake.solves.Load(); n != 2 {
		t.Errorf("backend solved %d times, want 2", n)
	}

	// −0 and +0 compare equal, so they share one entry — whether the sign
	// is written or comes from noise that quantizes to zero.
	zero, _ := b.Evaluate(ctx, backend.Scalar(100, 0), nil)
	for _, neg := range []float64{math.Copysign(0, -1), -1e-12} {
		if r, _ := b.Evaluate(ctx, backend.Scalar(100, neg), nil); r != zero {
			t.Errorf("current %g did not share +0's entry", neg)
		}
	}
	if n := fake.solves.Load(); n != 3 {
		t.Errorf("backend solved %d times after the zero currents, want 3", n)
	}

	// A NaN point keys like any other: its solve finishes, leaves no
	// in-flight entry behind, and repeats hit the one stored result.
	before := c.Len()
	for i := 0; i < 5; i++ {
		if _, err := b.Evaluate(ctx, backend.Scalar(math.NaN(), 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	inflight := len(c.infl)
	c.mu.Unlock()
	if inflight != 0 {
		t.Errorf("NaN points left %d in-flight entries, want 0", inflight)
	}
	if got := c.Len() - before; got != 1 {
		t.Errorf("NaN points added %d cache entries, want 1", got)
	}
	if n := fake.solves.Load(); n != 4 {
		t.Errorf("backend solved %d times after the NaN points, want 4", n)
	}
}

// warmEval records the warm field each solve received.
type warmEval struct {
	fakeEval
	warm [][]float64
}

func (w *warmEval) Evaluate(ctx context.Context, op backend.OpPoint, warm []float64) (*thermal.Result, error) {
	w.warm = append(w.warm, append([]float64(nil), warm...))
	return w.fakeEval.Evaluate(ctx, op, warm)
}

// TestAnchorAndHintAccounting pins the two variants of Evaluate: Anchor
// solves a missing point like Evaluate but leaves a completed one out of
// the hit count, and EvaluateHint builds its hint for a genuine miss only.
func TestAnchorAndHintAccounting(t *testing.T) {
	ev := &warmEval{}
	c := New(0)
	b := c.Bind(ev)
	ctx := context.Background()

	a, _ := b.Anchor(ctx, backend.Scalar(100, 1))
	r, _ := b.Evaluate(ctx, backend.Scalar(100, 1), nil)
	if again, _ := b.Anchor(ctx, backend.Scalar(100, 1)); again != a || r != a {
		t.Error("Anchor and Evaluate returned different results for one point")
	}
	if s, want := c.Stats(), (Stats{Hits: 1, Misses: 1}); s != want {
		t.Errorf("stats after Anchor, Evaluate, Anchor = %+v, want %+v", s, want)
	}

	calls := 0
	hint := func() []float64 { calls++; return []float64{7} }
	if _, err := b.EvaluateHint(ctx, backend.Scalar(100, 1), hint); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("a hit built its hint %d times, want 0", calls)
	}
	if _, err := b.EvaluateHint(ctx, backend.Scalar(100, 2), hint); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("a miss built its hint %d times, want 1", calls)
	}
	if got := ev.warm[len(ev.warm)-1]; len(got) != 1 || got[0] != 7 {
		t.Errorf("the miss solved from %v, want the hint's [7]", got)
	}
	if s, want := c.Stats(), (Stats{Hits: 2, Misses: 2}); s != want {
		t.Errorf("stats after the hinted calls = %+v, want %+v", s, want)
	}
}

// TestHitAllocatesNothing pins the zero-allocation hit for a scalar point
// and for a point wider than eight zones: both key into the reused buffer
// and look up without building a string.
func TestHitAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{1, 9} {
		c := New(0)
		b := c.Bind(&fakeEval{})
		op := backend.OpPoint{Omega: 250, Currents: make([]float64, k)}
		for i := range op.Currents {
			op.Currents[i] = 0.5 + 0.25*float64(i)
		}
		if _, err := b.Evaluate(ctx, op, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := b.Evaluate(ctx, op, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("k=%d: a hit allocates %v times, want 0", k, allocs)
		}
	}
}

// TestOversizedPointsCached is the regression test for the historical
// k > 8 cache bypass: wide points used to skip the cache (and
// singleflight) entirely, so every high-zone request burned a full solve.
// They key by every coordinate and cache like any other point.
func TestOversizedPointsCached(t *testing.T) {
	fake := &fakeEval{}
	c := New(0)
	b := c.Bind(fake)
	ctx := context.Background()

	op := backend.OpPoint{Omega: 100, Currents: make([]float64, 9)}
	for i := range op.Currents {
		op.Currents[i] = 0.25 * float64(i)
	}
	r1, err := b.Evaluate(ctx, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Evaluate(ctx, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := fake.solves.Load(); n != 1 {
		t.Errorf("wide point was not cached (%d solves, want 1)", n)
	}
	if r1 != r2 {
		t.Error("repeat evaluation returned a different result pointer")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 || s.Collisions != 0 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit, no collisions", s)
	}

	// Distinct wide vectors sharing the leading eight currents must not
	// alias: only the tail differs.
	tail := backend.OpPoint{Omega: 100, Currents: append([]float64(nil), op.Currents...)}
	tail.Currents[8] += 1
	rt, err := b.Evaluate(ctx, tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt == r1 {
		t.Error("wide points differing only past the eighth current aliased one entry")
	}
}

// TestConcurrentWideMissesCoalesce asserts the ISSUE 7 acceptance bound:
// M concurrent identical k=16 misses (the high-density-TEC regime) run
// exactly one backend solve.
func TestConcurrentWideMissesCoalesce(t *testing.T) {
	fake := &fakeEval{block: make(chan struct{})}
	c := New(0)
	b := c.Bind(fake)

	op := backend.OpPoint{Omega: 310, Currents: make([]float64, 16)}
	for i := range op.Currents {
		op.Currents[i] = 0.1 * float64(i+1)
	}

	const workers = 12
	var launched, done sync.WaitGroup
	launched.Add(1)
	done.Add(workers)
	results := make([]*thermal.Result, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			if i == 0 {
				launched.Done()
			} else {
				launched.Wait()
				time.Sleep(2 * time.Millisecond)
			}
			r, err := b.Evaluate(context.Background(), op, nil)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	launched.Wait()
	time.Sleep(10 * time.Millisecond)
	close(fake.block)
	done.Wait()

	if n := fake.solves.Load(); n != 1 {
		t.Fatalf("%d concurrent identical k=16 misses ran %d solves, want exactly 1", workers, n)
	}
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d got a different result pointer", i)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits+s.Waits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+waits", s, workers-1)
	}
}

// TestSetSolveHookConcurrentWithEvaluate is the -race gate for hook
// installation mid-traffic (oftecd attaches metrics to a cache that is
// already serving).
func TestSetSolveHookConcurrentWithEvaluate(t *testing.T) {
	fake := &fakeEval{}
	c := New(0)
	b := c.Bind(fake)

	var hooked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := backend.Scalar(float64(100+i%50), float64(w))
				if w == 3 {
					op = backend.OpPoint{Omega: float64(100 + i%50), Currents: make([]float64, 16)}
				}
				if _, err := b.Evaluate(context.Background(), op, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		c.SetSolveHook(func(backend.OpPoint) { hooked.Add(1) })
		c.SetSolveHook(nil)
		time.Sleep(100 * time.Microsecond)
	}
	c.SetSolveHook(func(backend.OpPoint) { hooked.Add(1) })
	close(stop)
	wg.Wait()
	if c.Stats().Misses == 0 {
		t.Error("stress loop produced no traffic")
	}
}

func TestWaiterHonorsContext(t *testing.T) {
	fake := &fakeEval{block: make(chan struct{})}
	c := New(0)
	b := c.Bind(fake)

	leaderIn := make(chan struct{})
	go func() {
		close(leaderIn)
		b.Evaluate(context.Background(), backend.Scalar(1, 1), nil)
	}()
	<-leaderIn
	time.Sleep(5 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.Evaluate(ctx, backend.Scalar(1, 1), nil)
	if err == nil {
		t.Fatal("cancelled waiter returned without error")
	}
	close(fake.block)
}

// TestBindingChurnStress is the oftecd access pattern under -race: new
// bindings appear mid-traffic (a model pool admitting fresh chips) while
// existing bindings hammer one small shared cache with mixed scalar,
// zoned, and wide (k=16) points hard enough to force generation
// rotations throughout.
func TestBindingChurnStress(t *testing.T) {
	fake := &fakeEval{}
	c := New(8) // tiny generations → constant rotation pressure
	seed := c.Bind(fake)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Binder goroutine: a stream of fresh bindings, each immediately used.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nb := c.Bind(fake)
			if _, err := nb.Evaluate(context.Background(), backend.Scalar(float64(50+i%20), 1), nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Traffic goroutines on the seed binding: scalar, zoned (k=4), wide
	// (k=16) points drawn from small pools so hits, waits, rotations, and
	// wide-key probes all occur.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var op backend.OpPoint
				switch (w + i) % 3 {
				case 0:
					op = backend.Scalar(float64(100+i%6), float64(w%3))
				case 1:
					op = backend.OpPoint{Omega: float64(200 + i%5), Currents: []float64{1, 2, float64(w % 2), 4}}
				default:
					cur := make([]float64, 16)
					cur[15] = float64(i % 4)
					op = backend.OpPoint{Omega: 300, Currents: cur}
				}
				if _, err := seed.Evaluate(context.Background(), op, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	s := c.Stats()
	if s.Rotations == 0 {
		t.Errorf("capacity-8 cache under churn never rotated: %+v", s)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("stress produced degenerate traffic: %+v", s)
	}
	if s.Collisions != 0 {
		t.Errorf("stress counted collisions: %+v", s)
	}
	if c.Len() > 2*c.Capacity() {
		t.Errorf("cache holds %d entries, bound is %d", c.Len(), 2*c.Capacity())
	}
}

// TestMixedTrafficSharedCache drives scalar and zoned bindings over one
// real full backend and one shared cache from many goroutines; run under
// -race it is the concurrency gate for the shared-cache refactor.
func TestMixedTrafficSharedCache(t *testing.T) {
	cfg := thermal.DefaultConfig()
	cfg.ChipRes = 8
	cfg.SpreaderRes = 7
	cfg.SinkRes = 6
	cfg.PCBRes = 4
	bench, err := workload.ByName("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := bench.PowerMap(cfg.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := backend.New("full", cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	full := plant.(backend.Zoner)
	assign := map[string]int{}
	units := cfg.Floorplan.Units()
	for i, u := range units {
		assign[u.Name] = i % 2
	}
	z, err := full.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	zoned, err := full.WithZoning(z)
	if err != nil {
		t.Fatal(err)
	}

	c := New(16)
	sb := c.Bind(plant)
	zb := c.Bind(zoned)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var err error
				if (w+i)%2 == 0 {
					omega := 200 + float64(i%5)*25
					_, err = sb.Evaluate(ctx, backend.Scalar(omega, float64(w%3)), nil)
				} else {
					omega := 220 + float64(i%4)*30
					cur := []float64{float64(w % 2), float64(i % 3)}
					_, err = zb.Evaluate(ctx, backend.OpPoint{Omega: omega, Currents: cur}, nil)
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	s := c.Stats()
	if s.Misses == 0 || s.Hits == 0 {
		t.Errorf("mixed traffic produced no cache reuse: %+v", s)
	}
	if s.Rotations == 0 {
		t.Errorf("capacity 16 under %d distinct points never rotated: %+v", 15+12, s)
	}

	// Spot-check cached answers against a fresh uncached backend.
	fresh, err := backend.New("full", cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sb.Evaluate(ctx, backend.Scalar(250, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Evaluate(ctx, backend.Scalar(250, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxChipTemp != want.MaxChipTemp {
		t.Errorf("cached MaxChipTemp %g != fresh %g", got.MaxChipTemp, want.MaxChipTemp)
	}
}
