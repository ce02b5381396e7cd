// Command oftecload replays concurrent mixed traffic against an oftecd
// instance and reports latency percentiles and cache-coalescing rates.
//
// By default it self-hosts: an in-process oftecd on an ephemeral port,
// so one command produces a full serving benchmark. Point -addr at a
// running daemon to load-test over the network instead.
//
// The request mix is deterministic (request i's type and operating point
// are functions of i), drawn from a small pool of chips and points so
// cross-request duplicates exercise the shared evaluation cache the way
// production traffic would. Throttled requests (429) honor Retry-After
// and retry; anything else non-2xx counts as an error and fails the run.
//
// The report is written as JSON (-out), e.g.:
//
//	{
//	  "requests": 1000, "concurrency": 32, "errors": 0,
//	  "p50_ms": 1.8, "p99_ms": 14.2, ...
//	  "cache": {"hits": 804, "waits": 23, "misses": 142, "coalesce_rate": 0.85}
//	}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oftec/internal/serve"
)

type mix struct {
	evaluate, zoned, optimize, sweep, pareto int
}

// kind maps request index i onto the mix deterministically.
func (m mix) kind(i int) string {
	total := m.evaluate + m.zoned + m.optimize + m.sweep + m.pareto
	switch r := i % total; {
	case r < m.evaluate:
		return "evaluate"
	case r < m.evaluate+m.zoned:
		return "zoned"
	case r < m.evaluate+m.zoned+m.optimize:
		return "optimize"
	case r < m.evaluate+m.zoned+m.optimize+m.sweep:
		return "sweep"
	default:
		return "pareto"
	}
}

func parseMix(s string) (mix, error) {
	m := mix{}
	fields := map[string]*int{
		"evaluate": &m.evaluate, "zoned": &m.zoned, "optimize": &m.optimize,
		"sweep": &m.sweep, "pareto": &m.pareto,
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return mix{}, fmt.Errorf("bad mix element %q (want kind:weight)", part)
		}
		p, okKind := fields[name]
		if !okKind {
			return mix{}, fmt.Errorf("unknown request kind %q", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return mix{}, fmt.Errorf("bad weight in %q", part)
		}
		*p = w
	}
	if m.evaluate+m.zoned+m.optimize+m.sweep+m.pareto <= 0 {
		return mix{}, fmt.Errorf("mix %q selects nothing", s)
	}
	return m, nil
}

// report is the BENCH_serve.json shape.
type report struct {
	Requests      int            `json:"requests"`
	Concurrency   int            `json:"concurrency"`
	Errors        int64          `json:"errors"`
	Retries429    int64          `json:"retries_429"`
	DurationS     float64        `json:"duration_s"`
	ThroughputRPS float64        `json:"throughput_rps"`
	P50MS         float64        `json:"p50_ms"`
	P90MS         float64        `json:"p90_ms"`
	P99MS         float64        `json:"p99_ms"`
	MaxMS         float64        `json:"max_ms"`
	Mix           map[string]int `json:"mix"`
	Cache         cacheReport    `json:"cache"`
	Pool          poolReport     `json:"pool"`
}

type cacheReport struct {
	Hits   int64 `json:"hits"`
	Waits  int64 `json:"waits"`
	Misses int64 `json:"misses"`
	// CoalesceRate is (hits+waits)/(hits+waits+misses): the fraction of
	// cache lookups served without a fresh backend solve.
	CoalesceRate float64 `json:"coalesce_rate"`
}

type poolReport struct {
	Models int   `json:"models"`
	Builds int64 `json:"builds"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oftecload: ")

	addr := flag.String("addr", "", "target oftecd address; empty self-hosts an in-process server")
	n := flag.Int("n", 1000, "total requests")
	c := flag.Int("c", 32, "concurrent workers")
	mixSpec := flag.String("mix", "evaluate:86,zoned:6,optimize:4,sweep:2,pareto:2", "request mix as kind:weight pairs")
	points := flag.Int("points", 40, "distinct scalar operating points in the pool")
	out := flag.String("out", "BENCH_serve.json", "report path")
	flag.Parse()

	m, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}

	base := *addr
	if base == "" {
		s := serve.New(serve.Options{MaxInflight: 2 * *c})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: s.Handler()}
		done := make(chan error, 1)
		//lint:ignore goroleak the deferred closure below joins via <-done after Close
		go func() { done <- srv.Serve(ln) }()
		defer func() {
			//lint:ignore errdrop shutdown of the self-hosted server; Serve's return drains below
			srv.Close()
			<-done
		}()
		base = ln.Addr().String()
		log.Printf("self-hosting on %s", base)
	}
	baseURL := "http://" + base

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConns: 2 * *c, MaxIdleConnsPerHost: 2 * *c},
		Timeout:   5 * time.Minute,
	}

	statsBefore, err := fetchStats(client, baseURL)
	if err != nil {
		log.Fatalf("target not serving: %v", err)
	}

	// Warm the model pool serially so the measured phase exercises the
	// cache and admission paths, not the one-time model builds.
	for _, chip := range chips {
		if err := oneRequest(client, baseURL, "evaluate", 0, chip, *points); err != nil {
			log.Fatalf("warmup: %v", err)
		}
	}

	latencies := make([]time.Duration, *n)
	kinds := make(map[string]int)
	var errs, retries int64
	var mu sync.Mutex

	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				kind := m.kind(i)
				chip := chips[i%len(chips)]
				t0 := time.Now()
				r, err := oneRequestRetry(client, baseURL, kind, i, chip, *points)
				lat := time.Since(t0)
				mu.Lock()
				latencies[i] = lat
				kinds[kind]++
				retries += r
				if err != nil {
					errs++
					log.Printf("request %d (%s): %v", i, kind, err)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	statsAfter, err := fetchStats(client, baseURL)
	if err != nil {
		log.Fatalf("final stats: %v", err)
	}

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	hits := statsAfter.Cache.Hits - statsBefore.Cache.Hits
	waits := statsAfter.Cache.Waits - statsBefore.Cache.Waits
	misses := statsAfter.Cache.Misses - statsBefore.Cache.Misses
	rep := report{
		Requests:      *n,
		Concurrency:   *c,
		Errors:        errs,
		Retries429:    retries,
		DurationS:     elapsed.Seconds(),
		ThroughputRPS: float64(*n) / elapsed.Seconds(),
		P50MS:         pct(0.50),
		P90MS:         pct(0.90),
		P99MS:         pct(0.99),
		MaxMS:         pct(1.0),
		Mix:           kinds,
		Cache: cacheReport{
			Hits: hits, Waits: waits, Misses: misses,
			CoalesceRate: coalesceRate(hits, waits, misses),
		},
		Pool: poolReport{Models: statsAfter.Pool.Models, Builds: statsAfter.Pool.Builds},
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	log.Printf("%d requests, %d workers: p50=%.2fms p99=%.2fms, %.0f req/s, %d errors, coalesce=%.2f",
		*n, *c, rep.P50MS, rep.P99MS, rep.ThroughputRPS, errs, rep.Cache.CoalesceRate)
	if errs > 0 {
		os.Exit(1)
	}
	if hits+waits == 0 {
		log.Print("no cross-request coalescing observed (hits+waits = 0)")
		os.Exit(1)
	}
}

func coalesceRate(hits, waits, misses int64) float64 {
	total := hits + waits + misses
	if total == 0 {
		return 0
	}
	return float64(hits+waits) / float64(total)
}

// chips is the fleet the harness spreads traffic over: distinct configs,
// so the pool holds several models while each chip's points coalesce.
var chips = []serve.ChipSpec{
	{},
	{Bench: "CRC32"},
	{Bench: "FFT", TMaxC: 85},
}

// body builds request i's payload. Operating points repeat every
// `points` indexes per kind, so a long run revisits them — that repeat
// traffic is what the cache-coalescing figures measure.
func body(kind string, i int, chip serve.ChipSpec, points int) (string, any) {
	p := i % points
	omega := 1000 + 200*float64(p%10)
	itec := 0.5 * float64(p/10%4)
	switch kind {
	case "evaluate":
		return "/v1/evaluate", serve.EvaluateRequest{Chip: chip, OmegaRPM: omega, ITecA: itec}
	case "zoned":
		currents := make([]float64, 9)
		for z := range currents {
			currents[z] = 0.25 * float64((p+z)%8)
		}
		return "/v1/evaluate", serve.EvaluateRequest{
			Chip: chip, OmegaRPM: omega, CurrentsA: currents,
			Zoning: &serve.ZoneSpec{Zones: 9},
		}
	case "optimize":
		return "/v1/optimize", serve.OptimizeRequest{Chip: chip, Mode: "oftec"}
	case "sweep":
		return "/v1/sweep", serve.SweepRequest{Chip: chip, NOmega: 4, NI: 4}
	default: // pareto
		return "/v1/pareto", serve.ParetoRequest{Chip: chip, TMaxC: []float64{90, 80}}
	}
}

// oneRequestRetry performs the request, honoring 429 Retry-After.
func oneRequestRetry(client *http.Client, base, kind string, i int, chip serve.ChipSpec, points int) (retries int64, err error) {
	for attempt := 0; ; attempt++ {
		err = oneRequest(client, base, kind, i, chip, points)
		re, ok := err.(*retryableError)
		if !ok {
			return retries, err
		}
		if attempt >= 20 {
			return retries, fmt.Errorf("still throttled after %d retries: %v", attempt, err)
		}
		retries++
		time.Sleep(re.after)
	}
}

type retryableError struct {
	after time.Duration
	msg   string
}

func (e *retryableError) Error() string { return e.msg }

func oneRequest(client *http.Client, base, kind string, i int, chip serve.ChipSpec, points int) error {
	path, payload := body(kind, i, chip, points)
	b, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	//lint:ignore errdrop nothing actionable if the response-body close fails
	defer resp.Body.Close()
	var sink json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		return fmt.Errorf("%s: reading response: %w", path, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusTooManyRequests:
		after := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return &retryableError{after: after, msg: fmt.Sprintf("%s: 429 (%s)", path, sink)}
	default:
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, sink)
	}
}

func fetchStats(client *http.Client, base string) (serve.StatzResponse, error) {
	resp, err := client.Get(base + "/statz")
	if err != nil {
		return serve.StatzResponse{}, err
	}
	//lint:ignore errdrop nothing actionable if the response-body close fails
	defer resp.Body.Close()
	var s serve.StatzResponse
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return serve.StatzResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.StatzResponse{}, fmt.Errorf("statz: status %d", resp.StatusCode)
	}
	return s, nil
}
