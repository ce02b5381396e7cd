package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"oftec/internal/core"
	"oftec/internal/evalcache"
)

// Options tunes a Server. The zero value selects service defaults.
type Options struct {
	// CacheCapacity is the shared evaluation cache's per-generation
	// capacity; zero selects the evalcache default.
	CacheCapacity int
	// MaxInflight bounds the number of working requests admitted at
	// once; beyond it requests wait admitWait for a slot and are then
	// refused with 429 + Retry-After. Zero selects 64.
	MaxInflight int
	// DefaultTimeout caps requests that set no timeout_ms. Zero selects
	// 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts. Zero selects 2m.
	MaxTimeout time.Duration
	// MaxModels bounds the model pool; a request for a new chip beyond
	// it is refused with 503. Zero selects 64.
	MaxModels int
}

// maxGridPoints bounds sweep grids (n_omega × n_i).
const maxGridPoints = 4096

// admitWait is how long an over-limit request waits for a slot before
// being throttled.
const admitWait = 250 * time.Millisecond

func (o Options) maxInflight() int {
	if o.MaxInflight > 0 {
		return o.MaxInflight
	}
	return 64
}

func (o Options) defaultTimeout() time.Duration {
	if o.DefaultTimeout > 0 {
		return o.DefaultTimeout
	}
	return 30 * time.Second
}

func (o Options) maxTimeout() time.Duration {
	if o.MaxTimeout > 0 {
		return o.MaxTimeout
	}
	return 2 * time.Minute
}

// Server is the oftecd service core: the model pool, the shared
// evaluation cache, admission control, and the HTTP handlers. It carries
// no listener — cmd/oftecd owns the http.Server; tests drive the Handler
// through httptest.
type Server struct {
	opts  Options
	cache *evalcache.Cache
	pool  *pool
	sem   chan struct{}
	start time.Time

	inflight  atomic.Int64
	total     atomic.Int64
	errors    atomic.Int64
	throttled atomic.Int64
	evaluates atomic.Int64
	optimizes atomic.Int64
	sweeps    atomic.Int64
	paretos   atomic.Int64
}

// New builds a Server.
func New(opts Options) *Server {
	return &Server{
		opts:  opts,
		cache: evalcache.New(opts.CacheCapacity),
		pool:  newPool(opts.MaxModels),
		sem:   make(chan struct{}, opts.maxInflight()),
		start: time.Now(),
	}
}

// Cache exposes the shared evaluation cache (load harness and tests
// read its stats; cmd/oftecd logs them on shutdown).
func (s *Server) Cache() *evalcache.Cache { return s.cache }

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.working(s.handleEvaluate, &s.evaluates))
	mux.HandleFunc("POST /v1/optimize", s.working(s.handleOptimize, &s.optimizes))
	mux.HandleFunc("POST /v1/sweep", s.working(s.handleSweep, &s.sweeps))
	mux.HandleFunc("POST /v1/pareto", s.working(s.handlePareto, &s.paretos))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

// working wraps a solve-carrying handler with admission control and
// traffic accounting. /healthz and /statz bypass it: an operator must be
// able to observe a saturated server.
func (s *Server) working(h http.HandlerFunc, counter *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.total.Add(1)
		counter.Add(1)
		release, ok := s.admit(r.Context())
		if !ok {
			s.throttled.Add(1)
			w.Header().Set("Retry-After", s.retryAfter())
			s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("serve: at capacity (%d in flight)", s.opts.maxInflight()))
			return
		}
		defer release()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		h(w, r)
	}
}

// admit takes an in-flight slot, waiting up to admitWait. The bound is
// what keeps a traffic burst from stacking up thousands of concurrent
// solves: beyond MaxInflight the surplus parks here briefly (absorbing
// jitter without a client retry loop) and is then turned away cheaply.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		t := time.NewTimer(admitWait)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
		case <-t.C:
			return nil, false
		case <-ctx.Done():
			return nil, false
		}
	}
	return func() { <-s.sem }, true
}

// retryAfter estimates when a slot will free: one mean holding time,
// floored at 1s — coarse, but it spreads retries instead of
// synchronizing them.
func (s *Server) retryAfter() string {
	return strconv.Itoa(int(admitWait/time.Second) + 1)
}

// requestContext derives the per-request deadline: client timeout_ms,
// clamped to MaxTimeout, defaulting to DefaultTimeout, layered over the
// connection context so a disconnect cancels the solve at its next
// iteration boundary. A negative timeout_ms is refused.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc, error) {
	if timeoutMS < 0 {
		return nil, nil, fmt.Errorf("serve: timeout_ms %d is negative", timeoutMS)
	}
	d := s.opts.defaultTimeout()
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if max := s.opts.maxTimeout(); d > max {
		d = max
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// maxBodyBytes caps a request body. The largest legitimate request — a
// chip spec with a full per-unit zone map and a long threshold list — is
// a few kilobytes, so 1 MiB rejects only abuse.
const maxBodyBytes = 1 << 20

// decode strictly parses the request body, reading at most maxBodyBytes
// of it. A body over the cap answers 413, any other malformed body 400.
func decode(w http.ResponseWriter, r *http.Request, v any) (status int, err error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("serve: request body over %d bytes", maxBodyBytes)
		}
		return http.StatusBadRequest, fmt.Errorf("serve: decoding request: %w", err)
	}
	return 0, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:ignore errdrop an encode failure here means the client hung up; there is no one left to tell
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status >= 500 || status == http.StatusBadRequest {
		s.errors.Add(1)
	}
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStatz serves the live counters admission-exempt, so a saturated
// or mid-sweep server stays observable.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	s.writeJSON(w, http.StatusOK, StatzResponse{
		UptimeS: time.Since(s.start).Seconds(),
		Pool:    s.poolStats(),
		Cache:   s.cacheStats(),
		Batch: BatchStats{
			Batches:     cs.Batches,
			BatchPoints: cs.BatchPoints,
		},
		Req: s.reqStats(),
	})
}

func (s *Server) poolStats() PoolStats {
	return PoolStats{
		Models: s.pool.size(),
		Builds: s.pool.builds.Load(),
	}
}

func (s *Server) cacheStats() CacheStats {
	cs := s.cache.Stats()
	return CacheStats{
		Hits:      cs.Hits,
		Waits:     cs.Waits,
		Misses:    cs.Misses,
		Rotations: cs.Rotations,
		Len:       s.cache.Len(),
		Capacity:  s.cache.Capacity(),
	}
}

func (s *Server) reqStats() ReqStats {
	return ReqStats{
		Total:     s.total.Load(),
		Errors:    s.errors.Load(),
		Throttled: s.throttled.Load(),
		InFlight:  s.inflight.Load(),
		Evaluate:  s.evaluates.Load(),
		Optimize:  s.optimizes.Load(),
		Sweep:     s.sweeps.Load(),
		Pareto:    s.paretos.Load(),
	}
}

// system resolves a chip spec through the pool to its shared System,
// mapping pool conditions to HTTP statuses.
func (s *Server) system(spec ChipSpec) (*poolEntry, *core.System, int, error) {
	e, err := s.pool.lookup(spec)
	if err != nil {
		if err == errPoolFull {
			return nil, nil, http.StatusServiceUnavailable, err
		}
		return nil, nil, http.StatusBadRequest, err
	}
	sys, err := e.system(s.pool, s.cache)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	return e, sys, 0, nil
}
