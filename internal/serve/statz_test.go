package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStatzBatchCounters drives a sweep (whole ω-rows submitted as
// batches) and checks /statz reports the blocked traffic alongside the
// pool, cache, and request counters.
func TestStatzBatchCounters(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/sweep", SweepRequest{NOmega: 4, NI: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.String())
	}
	rec = get(t, h, "/statz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statz status %d: %s", rec.Code, rec.Body.String())
	}
	statz := decodeBody[StatzResponse](t, rec)
	if statz.Batch.Batches < 4 || statz.Batch.BatchPoints < 16 {
		t.Errorf("4×4 sweep counted %d batches / %d points, want ≥4 / ≥16", statz.Batch.Batches, statz.Batch.BatchPoints)
	}
	if statz.Cache.Misses == 0 || statz.Pool.Builds != 1 || statz.Req.Sweep != 1 {
		t.Errorf("statz counters off: %+v", statz)
	}
}

// TestStatzAdmissionExempt: /statz must answer on a saturated server.
func TestStatzAdmissionExempt(t *testing.T) {
	s := New(Options{MaxInflight: 1})
	h := s.Handler()
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()
	if rec := get(t, h, "/statz"); rec.Code != http.StatusOK {
		t.Errorf("statz blocked by admission control: %d", rec.Code)
	}
}

// TestOversizeBodyRejected: a request body over maxBodyBytes is refused
// with 413 before it is decoded, on every body-carrying endpoint, while a
// normal request on the same server is unaffected.
func TestOversizeBodyRejected(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	// A syntactically valid prefix followed by padding, so only the size
	// cap can reject it.
	big := `{"omega_rpm":3000,"itec_a":1,"chip":{"bench":"` + strings.Repeat("x", maxBodyBytes) + `"}}`
	for _, path := range []string{"/v1/evaluate", "/v1/optimize", "/v1/sweep", "/v1/pareto"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(big))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversize body answered %d, want 413", path, rec.Code)
		}
	}

	rec := post(t, h, "/v1/evaluate", EvaluateRequest{OmegaRPM: 3000, ITecA: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("normal request after oversize ones answered %d: %s", rec.Code, rec.Body.String())
	}
	if got := decodeBody[EvaluateResponse](t, rec); got.Runaway || got.MaxTempC <= 0 {
		t.Errorf("normal request answer off: %+v", got)
	}
}

// TestReadTimeoutBoundsBodyOnly: on a real server with a short
// ReadTimeout, a handler that has decoded its body and then runs past the
// timeout keeps a live request context — the read timeout must not cut
// solves short of their per-request deadline. The handler drains the body
// to EOF so net/http's background connection read is in flight while it
// waits; that read is what would cancel the context if it kept the
// expired deadline.
func TestReadTimeoutBoundsBodyOnly(t *testing.T) {
	const readTimeout = 100 * time.Millisecond
	ctxErr := make(chan error, 1)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req EvaluateRequest
		if status, err := decode(w, r, &req); err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-r.Context().Done():
		case <-time.After(5 * readTimeout):
		}
		ctxErr <- r.Context().Err()
	}))
	srv.Config.ReadTimeout = readTimeout
	srv.Start()
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader(`{"omega_rpm":3000,"itec_a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := <-ctxErr; err != nil {
		t.Errorf("request context cancelled after ReadTimeout: %v", err)
	}
}
