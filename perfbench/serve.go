package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"oftec/internal/backend"
	"oftec/internal/coolant"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/serve"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// The serving workload: an in-process oftecd on loopback, driven in a
// closed loop by serveClients keep-alive connections. A cycle is one
// block of requests; both clients draw from the block until it is done.
const (
	serveClients = 2
	hotScalar    = 12 // hot scalar operating points per chip
	hotZoned     = 6  // hot zoned operating points per chip
	zonedK       = 9  // zones of a zoned request
	sweepEdge    = 4  // sweep requests sample a 4×4 grid
)

// serveBlock is one cycle's request mix, in counts: oftecload's default
// weights (evaluate 86, zoned 6, optimize 4, sweep 2, Pareto 2 per 100
// requests). Half of the scalar and zoned evaluations revisit the hot set;
// the other half are fresh points, which keeps real solves on the latency
// tail.
var serveBlock = []struct {
	kind  reqKind
	count int
}{
	{kindEvalHot, 43},
	{kindEvalFresh, 43},
	{kindZonedHot, 3},
	{kindZonedFresh, 3},
	{kindOptimize, 4},
	{kindSweepReq, 2},
	{kindPareto, 2},
}

type reqKind int

const (
	kindEvalHot reqKind = iota
	kindEvalFresh
	kindZonedHot
	kindZonedFresh
	kindOptimize
	kindSweepReq
	kindPareto
)

var paretoTMaxC = []float64{90, 80}

// serveChips is the fleet: the paper's fan on the full backend, the
// reduced-order backend, and the liquid loop through the coolant seam.
var serveChips = []serve.ChipSpec{
	{Bench: "Basicmath", Backend: "full"},
	{Bench: "CRC32", Backend: "rom"},
	{Bench: "FFT", Backend: "liquid", TMaxC: 85},
}

const (
	headerOp    = "X-Perfbench-Op"
	headerTrace = "X-Perfbench-Trace"
)

// chipOracle is what the oracle knows about one chip, independent of any
// server: its operating box and the optimum of a direct Algorithm 1 run.
type chipOracle struct {
	uMaxRPM float64
	iMax    float64
	optimum serve.OptimizeResponse
}

// serveOracle holds every chip's oracle, computed once per process.
var serveOracle struct {
	once  sync.Once
	chips []chipOracle
	err   error
}

// prepareServe computes the oracle outside the timed set-up, so setup_s
// covers only the server: listener, pool builds, reduced-order basis and
// warm-up requests.
func prepareServe() error {
	_, err := serveOracles()
	return err
}

func serveOracles() ([]chipOracle, error) {
	serveOracle.once.Do(func() {
		for _, spec := range serveChips {
			o, err := directOptimum(spec)
			if err != nil {
				serveOracle.err = fmt.Errorf("%s: %w", spec.Bench, err)
				return
			}
			serveOracle.chips = append(serveOracle.chips, o)
		}
	})
	return serveOracle.chips, serveOracle.err
}

// directOptimum builds the chip directly — the same configuration the
// serve pool materializes — and runs Algorithm 1 on it.
func directOptimum(spec serve.ChipSpec) (chipOracle, error) {
	cfg := experiments.FastSetup().Config
	if spec.TMaxC != 0 {
		cfg.TMax = units.CToK(spec.TMaxC)
	}
	cs, err := coolant.SpecByName(spec.Coolant)
	if err != nil {
		return chipOracle{}, err
	}
	cfg.Coolant = cs
	if err := cfg.Validate(); err != nil {
		return chipOracle{}, err
	}
	bench, err := workload.ByName(spec.Bench)
	if err != nil {
		return chipOracle{}, err
	}
	pm, err := bench.PowerMap(cfg.Floorplan)
	if err != nil {
		return chipOracle{}, err
	}
	plant, err := backend.New(spec.Backend, cfg, pm)
	if err != nil {
		return chipOracle{}, err
	}
	sys := core.NewSystem(plant)
	out, err := sys.Run(core.Options{Mode: core.ModeHybrid})
	if err != nil {
		return chipOracle{}, err
	}
	sysCfg := sys.Config()
	return chipOracle{
		uMaxRPM: units.RadPerSecToRPM(sysCfg.UMax()),
		iMax:    sysCfg.TEC.MaxCurrent,
		optimum: serve.OptimizeResponse{
			Feasible: out.Feasible,
			OmegaRPM: units.RadPerSecToRPM(out.Omega),
			ITecA:    out.ITEC,
			CoolingW: out.CoolingPower(),
		},
	}, nil
}

// chipState is one chip of a running server: its oracle and its hot set.
type chipState struct {
	chipOracle
	spec       serve.ChipSpec
	hotScalar  []serve.EvaluateRequest
	hotZoned   []serve.EvaluateRequest
	hotAnswers map[string]any // hot request key → first answer seen
}

type serveRunner struct {
	srv    *serve.Server
	hs     *http.Server
	wg     sync.WaitGroup
	base   string
	client *http.Client
	rng    *rand.Rand
	chips  []*chipState
	next   int64

	// tracedStatz sums the server's request and pool counters over the
	// traced cycles; statzErr is the first failure to read them.
	tracedStatz serve.StatzResponse
	statzErr    error

	mu sync.Mutex // guards chips[*].hotAnswers
}

// newServeRunner is the serving workload's set-up: the server, its
// listener, and a model-pool warm-up request per chip (model assembly and
// the reduced-order basis). The oracle's direct optima come from
// prepareServe and are not part of it.
func newServeRunner(ctx context.Context, seed uint64, _ references, traced bool) (runner, error) {
	oracles, err := serveOracles()
	if err != nil {
		return nil, err
	}
	s := &serveRunner{srv: serve.New(serve.Options{}), rng: newRand(seed)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.handler(s.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}

	for i, spec := range serveChips {
		s.chips = append(s.chips, s.newChip(spec, oracles[i]))
	}
	for _, c := range s.chips {
		variants := []bool{false}
		if traced {
			variants = append(variants, true)
		}
		for _, tv := range variants {
			body := c.hotScalar[0]
			body.Chip = chipFor(c.spec, tv)
			if _, err := s.post(ctx, "/v1/evaluate", body, 0, tv); err != nil {
				return nil, s.failSetup(fmt.Errorf("warming %s: %w", c.spec.Bench, err))
			}
		}
	}
	return s, nil
}

func (s *serveRunner) failSetup(err error) error {
	if cerr := s.close(); cerr != nil {
		return fmt.Errorf("%w (closing: %v)", err, cerr)
	}
	return err
}

// chipFor returns the spec a request uses: the tracing variant of the
// chip's backend for traced cycles.
func chipFor(spec serve.ChipSpec, traced bool) serve.ChipSpec {
	if traced {
		spec.Backend = tracePrefix + spec.Backend
	}
	return spec
}

// newChip draws the chip's hot set from the seed.
func (s *serveRunner) newChip(spec serve.ChipSpec, o chipOracle) *chipState {
	c := &chipState{chipOracle: o, spec: spec, hotAnswers: map[string]any{}}
	for i := 0; i < hotScalar; i++ {
		c.hotScalar = append(c.hotScalar, s.scalarPoint(c))
	}
	for i := 0; i < hotZoned; i++ {
		c.hotZoned = append(c.hotZoned, s.zonedPoint(c))
	}
	return c
}

// scalarPoint draws an operating point from the chip's (ω, I) box, away
// from the ω = 0 edge where every point is a runaway.
func (s *serveRunner) scalarPoint(c *chipState) serve.EvaluateRequest {
	return serve.EvaluateRequest{
		Chip:     c.spec,
		OmegaRPM: c.uMaxRPM * (0.2 + 0.8*s.rng.Float64()),
		ITecA:    c.iMax * s.rng.Float64(),
	}
}

func (s *serveRunner) zonedPoint(c *chipState) serve.EvaluateRequest {
	cur := make([]float64, zonedK)
	for i := range cur {
		cur[i] = c.iMax * s.rng.Float64()
	}
	return serve.EvaluateRequest{
		Chip:      c.spec,
		OmegaRPM:  c.uMaxRPM * (0.2 + 0.8*s.rng.Float64()),
		CurrentsA: cur,
		Zoning:    &serve.ZoneSpec{Zones: zonedK},
	}
}

// request is one generated request of a block.
type request struct {
	id     int64
	kind   reqKind
	chip   *chipState
	path   string
	body   any
	hotKey string // non-empty for hot-set evaluations
}

// block draws the next cycle's requests from the seed.
func (s *serveRunner) block(traced bool) []request {
	var reqs []request
	for _, b := range serveBlock {
		for i := 0; i < b.count; i++ {
			c := s.chips[s.rng.IntN(len(s.chips))]
			r := request{kind: b.kind, chip: c}
			chip := chipFor(c.spec, traced)
			switch b.kind {
			case kindEvalHot:
				j := s.rng.IntN(len(c.hotScalar))
				body := c.hotScalar[j]
				body.Chip = chip
				r.path, r.body, r.hotKey = "/v1/evaluate", body, "scalar"+strconv.Itoa(j)
			case kindEvalFresh:
				body := s.scalarPoint(c)
				body.Chip = chip
				r.path, r.body = "/v1/evaluate", body
			case kindZonedHot:
				j := s.rng.IntN(len(c.hotZoned))
				body := c.hotZoned[j]
				body.Chip = chip
				r.path, r.body, r.hotKey = "/v1/evaluate", body, "zoned"+strconv.Itoa(j)
			case kindZonedFresh:
				body := s.zonedPoint(c)
				body.Chip = chip
				r.path, r.body = "/v1/evaluate", body
			case kindOptimize:
				r.path, r.body = "/v1/optimize", serve.OptimizeRequest{Chip: chip, Mode: "oftec"}
			case kindSweepReq:
				r.path, r.body = "/v1/sweep", serve.SweepRequest{Chip: chip, NOmega: sweepEdge, NI: sweepEdge}
			case kindPareto:
				r.path, r.body = "/v1/pareto", serve.ParetoRequest{Chip: chip, TMaxC: paretoTMaxC}
			}
			reqs = append(reqs, r)
		}
	}
	s.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := range reqs {
		s.next++
		reqs[i].id = s.next
	}
	return reqs
}

func (s *serveRunner) cycle(ctx context.Context, traced bool) ([]opRecord, evalcache.Stats) {
	reqs := s.block(traced)
	out := make([]opRecord, len(reqs))
	var statzBefore serve.StatzResponse
	if traced {
		statzBefore = s.readStatz(ctx)
	}
	before := s.srv.Cache().Stats()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = s.do(ctx, reqs[i], traced)
			}
		}()
	}
	for i := range reqs {
		work <- i
	}
	close(work)
	wg.Wait()
	cache := subStats(s.srv.Cache().Stats(), before)
	if traced {
		after := s.readStatz(ctx)
		s.tracedStatz.Req.Throttled += after.Req.Throttled - statzBefore.Req.Throttled
		s.tracedStatz.Pool.Builds += after.Pool.Builds - statzBefore.Pool.Builds
	}
	return out, cache
}

// do sends one request and checks its answer.
func (s *serveRunner) do(ctx context.Context, r request, traced bool) opRecord {
	out := opRecord{id: r.id, key: r.chip.spec.Bench, power: math.NaN()}
	start := time.Now()
	raw, err := s.post(ctx, r.path, r.body, r.id, traced)
	out.latency = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	out.err = s.check(r, raw, &out)
	return out
}

// check is the serving oracle: every JSON number is finite, hot-set
// answers never change, sweeps and fronts have their shape, and each
// optimize answer equals a direct core.System.Run on the same chip.
func (s *serveRunner) check(r request, raw []byte, out *opRecord) error {
	var generic any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&generic); err != nil {
		return fmt.Errorf("%s: decoding: %w", r.path, err)
	}
	if err := allFinite(generic); err != nil {
		return fmt.Errorf("%s: %w", r.path, err)
	}
	switch r.kind {
	case kindEvalHot, kindZonedHot:
		s.mu.Lock()
		defer s.mu.Unlock()
		first, seen := r.chip.hotAnswers[r.hotKey]
		if !seen {
			r.chip.hotAnswers[r.hotKey] = generic
			return nil
		}
		if !reflect.DeepEqual(first, generic) {
			return fmt.Errorf("%s: hot point %s answered differently on a repeat", r.chip.spec.Bench, r.hotKey)
		}
	case kindOptimize:
		var got serve.OptimizeResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			return err
		}
		out.power = got.CoolingW
		want := r.chip.optimum
		if got.Feasible != want.Feasible {
			return fmt.Errorf("%s: optimize feasible=%v, direct run %v", r.chip.spec.Bench, got.Feasible, want.Feasible)
		}
		if err := checkCoord(r.chip.spec.Bench+": ω* (RPM)", got.OmegaRPM, want.OmegaRPM, r.chip.uMaxRPM); err != nil {
			return err
		}
		if err := checkCoord(r.chip.spec.Bench+": I*", got.ITecA, want.ITecA, r.chip.iMax); err != nil {
			return err
		}
		return checkPower(r.chip.spec.Bench+": optimize", got.CoolingW, want.CoolingW)
	case kindSweepReq:
		var got serve.SweepResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			return err
		}
		if len(got.Points) != sweepEdge*sweepEdge {
			return fmt.Errorf("sweep: %d points, want %d", len(got.Points), sweepEdge*sweepEdge)
		}
	case kindPareto:
		var got serve.ParetoResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			return err
		}
		if len(got.Points) != len(paretoTMaxC) {
			return fmt.Errorf("pareto: %d points, want %d", len(got.Points), len(paretoTMaxC))
		}
	}
	return nil
}

// allFinite walks a decoded JSON value and rejects any number that does
// not parse to a finite float64.
func allFinite(v any) error {
	switch v := v.(type) {
	case json.Number:
		f, err := strconv.ParseFloat(v.String(), 64)
		if err != nil || !finite(f) {
			return fmt.Errorf("non-finite number %q", v.String())
		}
	case map[string]any:
		for k, e := range v {
			if err := allFinite(e); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
	case []any:
		for _, e := range v {
			if err := allFinite(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// post sends one JSON request and returns the body of a 2xx response.
func (s *serveRunner) post(ctx context.Context, path string, body any, id int64, traced bool) ([]byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerOp, strconv.FormatInt(id, 10))
	if traced {
		req.Header.Set(headerTrace, "1")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// handler wraps the server's routes: a traced request gets a
// serve.handler span, carried in its context so backend calls that take
// the request context attach to it.
func (s *serveRunner) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(headerTrace) == "" {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
		if err != nil {
			http.Error(w, "bad "+headerOp, http.StatusBadRequest)
			return
		}
		a := rec.root(id, spanHandler)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), a.ref())))
		a.finish()
	})
}

// readStatz reads the server's live counters; a failure is kept for
// extras to report.
func (s *serveRunner) readStatz(ctx context.Context) serve.StatzResponse {
	var st serve.StatzResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/statz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = s.client.Do(req); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil && s.statzErr == nil {
		s.statzErr = fmt.Errorf("reading /statz: %w", err)
	}
	return st
}

// extras returns the server's throttled responses and pool builds over
// the traced cycles.
func (s *serveRunner) extras() (map[string]float64, error) {
	if s.statzErr != nil {
		return nil, s.statzErr
	}
	return map[string]float64{
		"serve.throttled":   float64(s.tracedStatz.Req.Throttled),
		"serve.pool_builds": float64(s.tracedStatz.Pool.Builds),
	}, nil
}

// close stops the server and waits for its serving goroutine.
func (s *serveRunner) close() error {
	s.client.CloseIdleConnections()
	err := s.hs.Close()
	s.wg.Wait()
	return err
}
