// Command oftecd is the long-running cooling-optimization service: a
// stdlib-only HTTP daemon answering evaluate/optimize/sweep/Pareto
// requests over JSON for many chip configurations at once.
//
// Endpoints (see internal/serve for the wire types):
//
//	POST /v1/evaluate  one steady state (scalar or zoned operating point)
//	POST /v1/optimize  Algorithm 1; "stream":true for NDJSON progress
//	POST /v1/sweep     𝒯/𝒫 surface samples on an ω×I grid
//	POST /v1/pareto    power/temperature trade-off over thresholds
//	GET  /healthz      liveness (exempt from admission control)
//	GET  /statz        pool, cache, batched-evaluation, and traffic counters (exempt)
//
// The daemon fails closed on slow or oversized clients: request headers
// must arrive within readHeaderTimeout and the request body within
// readTimeout, and bodies over 1 MiB are refused with 413. It shuts down
// cleanly on SIGTERM/SIGINT: the listener closes, in-flight requests get a
// grace period, and the final cache statistics are logged.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oftec/internal/serve"
)

// Connection limits: a client gets readHeaderTimeout to send its request
// line and headers and readTimeout for the whole request, body included,
// so a slow or stalled client cannot hold a connection indefinitely. The
// longest legitimate body is a few kilobytes. Neither timeout cancels a
// running handler: net/http clears the read deadline when the handler
// reaches the end of the body, so solve time is bounded by the
// per-request deadline alone.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oftecd: ")

	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	cacheCap := flag.Int("cache-capacity", 0, "shared evalcache per-generation capacity (0 = default)")
	maxInflight := flag.Int("max-inflight", 0, "admitted working requests before 429 (0 = default 64)")
	maxModels := flag.Int("max-models", 0, "model-pool bound (0 = default 64)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "clamp on client-requested deadlines (0 = 2m)")
	grace := flag.Duration("grace", 15*time.Second, "shutdown grace period for in-flight requests")
	flag.Parse()

	s := serve.New(serve.Options{
		CacheCapacity:  *cacheCap,
		MaxInflight:    *maxInflight,
		MaxModels:      *maxModels,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())

	// Serve's terminal error is consumed below in both exit paths.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("received %s, draining", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := <-errCh; err != nil && err != http.ErrServerClosed {
		log.Printf("serve: %v", err)
	}

	cs := s.Cache().Stats()
	log.Printf("cache at exit: hits=%d waits=%d misses=%d rotations=%d batches=%d batch_points=%d",
		cs.Hits, cs.Waits, cs.Misses, cs.Rotations, cs.Batches, cs.BatchPoints)
}
