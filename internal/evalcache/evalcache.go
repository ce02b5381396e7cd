// Package evalcache is the shared steady-state evaluation cache that sits
// in front of any backend.Evaluator. It was extracted from the optimizer's
// System so the scalar and zoned optimization paths (and anything else
// that hammers a backend with near-duplicate operating points) share one
// bounded cache with one set of traffic statistics.
//
// Two properties carry over from the original in-System cache and are
// load-bearing for the optimizer:
//
//   - Singleflight: concurrent misses on the same quantized key coalesce
//     onto a single in-flight solve; every waiter gets the leader's result.
//   - Two-generation eviction: inserts go to the current generation; when
//     it fills, the previous generation is discarded and the current one
//     becomes the previous — still readable, with hits promoted back into
//     the current generation. An eviction therefore drops at most the
//     stale half of the working set, never a hot incumbent
//     mid-optimization.
//
// A Cache is shared between evaluators through Bindings: Bind assigns the
// evaluator a private key space inside the common map, so a scalar and a
// zoned binding (or two different backends) never alias each other's
// entries while still sharing capacity, eviction pressure, and stats.
package evalcache

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"oftec/internal/backend"
	"oftec/internal/thermal"
)

// DefaultCapacity is the per-generation entry bound; two generations give
// a ~16k-point footprint.
const DefaultCapacity = 1 << 13

// Stats counts cache traffic; totals are cumulative for the Cache's
// lifetime, across all bindings.
type Stats struct {
	// Hits were served from a completed cached solve. Anchor's reads are
	// not among them.
	Hits int64
	// Waits were coalesced onto another caller's in-flight solve — each
	// one is a backend solve that an unshared cache would have duplicated.
	Waits int64
	// Misses are underlying backend solves started (one per unique key).
	Misses int64
	// Rotations counts generation rotations (bounded evictions).
	Rotations int64
	// Collisions is always zero: a key holds every quantized coordinate
	// of its point, so two distinct points never share one. The field
	// stays for readers of the struct.
	Collisions int64
	// Batches counts EvaluateBatch calls; BatchPoints the operating points
	// submitted through them. Each point still lands in Hits, Waits, or
	// Misses above, so BatchPoints measures how much traffic takes the
	// blocked path rather than adding to the per-point totals.
	Batches     int64
	BatchPoints int64
}

// entry is one completed cached solve, stored under its own key so a
// promotion between generations re-inserts it without rebuilding the key.
type entry struct {
	key string
	res *thermal.Result
}

// inflight is one deduplicated miss: callers coalesced onto it wait on
// done, which the leader closes after filling res/err.
type inflight struct {
	entry
	done chan struct{}
	err  error
}

// Cache is a bounded, concurrency-safe evaluation cache shared by any
// number of Bindings. The zero value is not usable; call New.
type Cache struct {
	mu        sync.Mutex
	cur, old  map[string]entry
	infl      map[string]*inflight
	capacity  int
	stats     Stats
	nextSpace uint64

	// key is the point being classified, written by keyLocked and read by
	// claimLocked; one reused buffer, guarded by mu.
	key []byte

	// hook, when non-nil, runs immediately before each underlying
	// backend Evaluate — i.e. exactly once per deduplicated miss.
	// Guarded by mu (read while a call classifies its points), so
	// installation is safe at any time, including mid-traffic.
	hook func(op backend.OpPoint)
}

// New builds a cache whose generations hold up to capacity entries each;
// capacity ≤ 0 selects DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cur:      make(map[string]entry),
		infl:     make(map[string]*inflight),
		capacity: capacity,
	}
}

// SetSolveHook installs a function invoked once per deduplicated miss,
// outside the cache lock, immediately before the underlying solve —
// instrumentation for tests and service metrics. Safe to call at any
// time, including concurrently with Evaluate: installation synchronizes
// on the cache lock, and misses already in their solve keep the hook (or
// nil) they observed at dispatch.
func (c *Cache) SetSolveHook(hook func(op backend.OpPoint)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = hook
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached results across both generations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.old)
}

// Capacity returns the per-generation entry bound (total footprint is at
// most twice this).
func (c *Cache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Binding is one evaluator's view of a shared Cache. Bindings satisfy
// backend.Evaluator (and backend.Fallthrough, so Authoritative and
// ModelOf resolve through the cache to the real backend).
type Binding struct {
	c     *Cache
	ev    backend.Evaluator
	space uint64
}

// Bind gives ev a private key space in the cache and returns the caching
// evaluator wrapping it.
func (c *Cache) Bind(ev backend.Evaluator) *Binding {
	c.mu.Lock()
	c.nextSpace++
	space := c.nextSpace
	c.mu.Unlock()
	return &Binding{c: c, ev: ev, space: space}
}

// Name identifies the wrapped backend.
func (b *Binding) Name() string { return b.ev.Name() }

// Config returns the wrapped backend's configuration.
func (b *Binding) Config() thermal.Config { return b.ev.Config() }

// Fallthrough exposes the wrapped backend so fall-through chain walks see
// through the cache.
func (b *Binding) Fallthrough() backend.Evaluator { return b.ev }

// Evaluate returns the (cached) steady state at op. Concurrent callers
// requesting the same quantized point share one solve; the optional warm
// temperature-field hint only steers a genuine miss — hits and coalesced
// waits return the already-solved result and ignore it. A point's answer
// agrees with any other hint's to solver tolerance, and the first solve's
// hint fixes the cached bits. Waiters honor ctx cancellation (the
// leader's solve continues for the others); a nil ctx waits
// unconditionally.
//
//oftec:hotpath
func (b *Binding) Evaluate(ctx context.Context, op backend.OpPoint, warm []float64) (*thermal.Result, error) {
	return b.evaluate(ctx, op, warm, nil, true)
}

// EvaluateHint is Evaluate with the warm hint made on demand: hint runs
// only on a genuine miss, on the caller's goroutine, just before the
// solve it steers, so a hint that costs work to build costs nothing on a
// hit or a coalesced wait. The caller leads that solve synchronously, and
// a backend reads its hint only during the call, so the field's buffer is
// free for reuse once EvaluateHint returns.
func (b *Binding) EvaluateHint(ctx context.Context, op backend.OpPoint, hint func() []float64) (*thermal.Result, error) {
	return b.evaluate(ctx, op, nil, hint, true)
}

// Anchor is Evaluate with no hint, for reading a point's temperature
// field to warm-start other solves from rather than for an evaluation of
// its own: a completed entry it finds is not counted in Stats.Hits, so
// the hits count the evaluations callers ask for. A wait or a miss counts
// as usual, since each stands for a solve.
func (b *Binding) Anchor(ctx context.Context, op backend.OpPoint) (*thermal.Result, error) {
	return b.evaluate(ctx, op, nil, nil, false)
}

// evaluate is Evaluate, EvaluateHint and Anchor: a genuine miss solves
// from warm, or from hint's field when hint is set, and a hit counts when
// countHit is set.
//
//oftec:hotpath
func (b *Binding) evaluate(ctx context.Context, op backend.OpPoint, warm []float64, hint func() []float64, countHit bool) (*thermal.Result, error) {
	c := b.c
	c.mu.Lock()
	c.keyLocked(b.space, op)
	res, fl, miss := c.claimLocked(countHit)
	hook := c.hook
	c.mu.Unlock()
	if fl == nil {
		return res, nil
	}
	if !miss {
		return waitInflight(ctx, fl)
	}

	if hook != nil {
		hook(op)
	}
	if hint != nil {
		warm = hint()
	}
	fl.res, fl.err = b.ev.Evaluate(ctx, op, warm)
	c.mu.Lock()
	c.finishLocked(fl)
	c.mu.Unlock()
	close(fl.done)
	return fl.res, fl.err
}

// keyLocked writes op's key in the binding's space into c.key: the space,
// then the bits of each quantized coordinate — ω, then every zone current
// — with −0 folded to +0, so coordinates that compare equal share a key.
// The length carries the zone count, so one rule keys every point.
//
//oftec:allocok amortized growth of the reused key buffer to the widest point seen; a grown buffer is rewritten in place
func (c *Cache) keyLocked(space uint64, op backend.OpPoint) {
	c.key = binary.LittleEndian.AppendUint64(c.key[:0], space)
	c.key = appendCoord(c.key, op.Omega)
	for _, v := range op.Currents {
		c.key = appendCoord(c.key, v)
	}
}

// appendCoord appends the bits of v quantized onto the cache grid.
func appendCoord(key []byte, v float64) []byte {
	q := quantize(v)
	if q == 0 {
		q = 0 // fold −0 onto +0
	}
	return binary.LittleEndian.AppendUint64(key, math.Float64bits(q))
}

// claimLocked classifies the point keyed in c.key — the one step Evaluate
// and EvaluateBatch share. A completed entry is a hit and returns its
// result (counted when countHit is set); a point another solve is working
// on returns that rendezvous to wait on; anything else is a miss,
// registered as a new rendezvous (miss = true) that the caller must solve
// and pass to finishLocked.
//
//oftec:hotpath
func (c *Cache) claimLocked(countHit bool) (res *thermal.Result, fl *inflight, miss bool) {
	if e, ok := c.lookupLocked(); ok {
		if countHit {
			c.stats.Hits++
		}
		return e.res, nil, false
	}
	if fl, ok := c.infl[string(c.key)]; ok {
		c.stats.Waits++
		return nil, fl, false
	}
	//lint:ignore hotalloc one rendezvous and one owned key per deduplicated miss; the hit path allocates nothing
	fl = &inflight{entry: entry{key: string(c.key)}, done: make(chan struct{})}
	c.infl[fl.key] = fl
	c.stats.Misses++
	return nil, fl, true
}

// finishLocked retires a solved miss: it leaves the in-flight table and,
// on success, enters the current generation. The caller then closes
// fl.done to wake the waiters.
func (c *Cache) finishLocked(fl *inflight) {
	delete(c.infl, fl.key)
	if fl.err == nil {
		c.storeLocked(fl.entry)
	}
}

// waitInflight returns the result of the solve behind fl, parking until
// it finishes unless it already has; a parked caller honors ctx
// cancellation (a nil ctx waits unconditionally).
//
//oftec:allocok coalesced-wait path blocks on a channel anyway; the cancellation error is off the hot path
func waitInflight(ctx context.Context, fl *inflight) (*thermal.Result, error) {
	select {
	case <-fl.done:
		return fl.res, fl.err
	default:
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-fl.done:
		return fl.res, fl.err
	case <-cancel:
		return nil, fmt.Errorf("evalcache: wait for in-flight solve: %w", ctx.Err())
	}
}

// lookupLocked checks both generations for the point keyed in c.key,
// promoting old-generation hits into the current one so the hot working
// set survives the next rotation.
//
//oftec:hotpath
func (c *Cache) lookupLocked() (entry, bool) {
	if e, ok := c.cur[string(c.key)]; ok {
		return e, true
	}
	if e, ok := c.old[string(c.key)]; ok {
		delete(c.old, e.key)
		c.storeLocked(e)
		return e, true
	}
	return entry{}, false
}

// storeLocked inserts into the current generation, rotating when full:
// the previous generation is kept readable, so an eviction discards at
// most the stale half of the working set.
//
//oftec:hotpath
func (c *Cache) storeLocked(e entry) {
	if len(c.cur) >= c.capacity {
		c.old = c.cur
		//lint:ignore hotalloc amortized generation rotation, once per capacity inserts
		c.cur = make(map[string]entry, len(c.old))
		c.stats.Rotations++
	}
	c.cur[e.key] = e
}

// quantize rounds an operating coordinate so cache keys are insensitive
// to last-bit noise from the line searches.
func quantize(v float64) float64 { return math.Round(v*1e9) / 1e9 }
