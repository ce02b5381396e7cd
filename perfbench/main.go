// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload, generated from a seed, for a fixed time;
// it checks every answer against the committed references and prints
// the workload's metrics as the last line of standard output:
//
//	perfbench --workload table2-oftec --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing at all. With --trace 1 they are per-layer figures: cycles
// alternate between the plain program and the program behind a tracing
// decorator that times every call into the backend layer, and the
// per-layer numbers come from the traced cycles only. Build and run it
// with run.sh, which keeps every artifact inside the checkout.
//
// The process exits nonzero when any answer fails its check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"oftec/internal/evalcache"
)

// setupReps is how many times a run performs its workload's set-up
// before the timed phase; the last set-up is the one that runs. During
// the timed phase of an untraced run a further set-up, built and
// discarded between cycles, is timed every setupEvery, so the reported
// median spans the whole run rather than one moment of the host's load.
const (
	setupReps  = 3
	setupEvery = 3 * time.Second
)

// minOps is the fewest operations a timed phase ends with, so at least
// ten samples lie beyond the reported p90 even when the host is slow.
const minOps = 110

// runLimit bounds a whole run, so a wedged operation still ends the
// process in time and is reported as failed.
const runLimit = 150 * time.Second

// opRecord is one completed (or failed) operation.
type opRecord struct {
	id      int64
	latency time.Duration
	// key identifies the operation's input for the quality metric: each
	// distinct key contributes its first optimized 𝒫 once.
	key    string
	power  float64 // NaN when the operation yields no 𝒫
	solver solverCounts
	cache  evalcache.Stats
	err    error // an error, a non-2xx response, or a failed check
}

type solverCounts struct{ iterations, funcEvals, gradEvals int }

// runner is one workload ready to run.
type runner interface {
	// cycle runs one pass over the workload's inputs and returns its
	// operations and the evaluation-cache traffic they caused.
	cycle(ctx context.Context, traced bool) ([]opRecord, evalcache.Stats)
	// extras returns workload-specific per-layer totals over the traced
	// cycles.
	extras() (map[string]float64, error)
	close() error
}

type workloadDef struct {
	name string
	// prepare, when set, computes what the oracle needs beyond the
	// committed references; it runs once, before and outside the timed
	// set-ups.
	prepare func() error
	setup   func(ctx context.Context, seed uint64, refs references, traced bool) (runner, error)
}

var workloads = []workloadDef{
	{name: "table2-oftec", setup: solveSetup(kindTable2, "table2-oftec")},
	{name: "zoned8-adjoint", setup: solveSetup(kindZoned8, "zoned8-adjoint")},
	{name: "sweep-40x40", setup: solveSetup(kindSweep, "sweep-40x40")},
	{name: "serve-mix", prepare: prepareServe, setup: newServeRunner},
}

func solveSetup(kind solveKind, name string) func(context.Context, uint64, references, bool) (runner, error) {
	return func(ctx context.Context, seed uint64, refs references, _ bool) (runner, error) {
		s := newSolveRunner(kind, name, seed, refs)
		if err := s.warm(ctx); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6f66746563))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	wlName := flag.String("workload", "", "workload to run (table2-oftec, zoned8-adjoint, sweep-40x40, serve-mix)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	refPath := flag.String("ref", "perfbench/reference.json", "reference answers")
	outDir := flag.String("out", ".bench_build", "directory for span dumps")
	writeRef := flag.Bool("write-reference", false, "compute every workload's reference answers into -ref and exit")
	flag.Parse()

	if *writeRef {
		if err := writeAllReferences(*refPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *wlName {
			def = &workloads[i]
		}
	}
	if def == nil || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	refs, err := loadReferences(*refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	traced := *traceFlag == 1
	m, err := measure(ctx, def, *seed, time.Duration(*seconds*float64(time.Second)), refs, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if traced {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, *seed))
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	for _, e := range m.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	info, err := json.Marshal(m.info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(info))
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if m.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measurement is one run's outcome.
type measurement struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	info              runInfo
}

// runInfo is printed on the line before the result: the machine, the
// run's shape, and its wall and CPU time.
type runInfo struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Traced   bool      `json:"traced"`
	Cycles   int       `json:"cycles"`
	Ops      int       `json:"ops"`
	SetupS   []float64 `json:"setup_s"`
	// CycleWallS and CycleCPUS are each cycle's wall and CPU seconds: a
	// cycle whose wall time grew while its CPU time did not was stalled
	// by the host.
	CycleWallS []float64 `json:"cycle_wall_s"`
	CycleCPUS  []float64 `json:"cycle_cpu_s"`
	Machine    machine   `json:"machine"`
}

// cycleRun is one cycle's records and resource use.
type cycleRun struct {
	traced bool
	recs   []opRecord
	cache  evalcache.Stats
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	numGC  uint32
	rssKiB int64 // peak resident set during the cycle
}

// measure sets the workload up setupReps times, then runs whole cycles
// until the timed phase has lasted at least d and run minOps operations.
// Traced runs alternate plain and traced cycles, starting with a plain
// one, and run at least one of each.
func measure(ctx context.Context, def *workloadDef, seed uint64, d time.Duration, refs references, traced bool) (*measurement, error) {
	m := &measurement{info: runInfo{Workload: def.name, Seed: seed, Traced: traced, Machine: describeMachine()}}
	processStart := readUsage()
	if def.prepare != nil {
		if err := def.prepare(); err != nil {
			return nil, fmt.Errorf("preparing the oracle: %w", err)
		}
	}

	var r runner
	var setupS []float64
	setUp := func() (runner, error) {
		t0 := time.Now()
		r, err := def.setup(ctx, seed, refs, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return r, nil
	}
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if r, err = setUp(); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	var cycles []cycleRun
	var tracedSnap snapshot
	begin := time.Now()
	nextSetup := begin.Add(setupEvery)
	ops := 0
	for c := 0; ; c++ {
		tc := traced && c%2 == 1
		if tc && c == 1 {
			tracedSnap = rec.snapshot()
		}
		resetPeakRSS()
		u0 := readUsage()
		recs, cache := r.cycle(ctx, tc)
		u1 := readUsage()
		cycles = append(cycles, cycleRun{
			traced: tc, recs: recs, cache: cache,
			wall: u1.wall.Sub(u0.wall), cpu: u1.cpu - u0.cpu,
			alloc: u1.alloc - u0.alloc, numGC: u1.numGC - u0.numGC,
			rssKiB: peakRSSKiB(u1),
		})
		ops += len(recs)
		done := time.Since(begin) >= d && ops >= minOps && (!traced || c >= 1)
		if done || ctx.Err() != nil {
			break
		}
		if !traced && time.Now().After(nextSetup) {
			extra, err := setUp()
			if err != nil {
				return nil, err
			}
			if err := extra.close(); err != nil {
				return nil, err
			}
			nextSetup = time.Now().Add(setupEvery)
		}
	}
	m.info.SetupS = setupS
	extras, err := r.extras()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	for _, cy := range cycles {
		m.info.Cycles++
		m.info.CycleWallS = append(m.info.CycleWallS, cy.wall.Seconds())
		m.info.CycleCPUS = append(m.info.CycleCPUS, cy.cpu.Seconds())
		for _, op := range cy.recs {
			m.info.Ops++
			m.attempted++
			if op.err != nil {
				m.failed++
				if len(m.failures) < 20 {
					m.failures = append(m.failures, fmt.Sprintf("op %d (%s): %v", op.id, op.key, op.err))
				}
			}
		}
	}
	end := readUsage()
	m.info.Machine.WallS = end.wall.Sub(processStart.wall).Seconds()
	m.info.Machine.CPUS = end.cpu.Seconds()

	if traced {
		m.metrics = layerMetrics(cycles, tracedSnap, extras)
	} else {
		m.metrics = endToEndMetrics(cycles, setupS)
	}
	return m, nil
}

// endToEndMetrics are what a user of the program sees.
func endToEndMetrics(cycles []cycleRun, setupS []float64) map[string]metric {
	var lat []time.Duration
	var rssMiB []float64
	var wall time.Duration
	var attempted, failed int
	power := map[string]float64{}
	for _, cy := range cycles {
		wall += cy.wall
		rssMiB = append(rssMiB, float64(cy.rssKiB)/1024)
		for _, r := range cy.recs {
			attempted++
			lat = append(lat, r.latency)
			if r.err != nil {
				failed++
				continue
			}
			if _, seen := power[r.key]; !seen && !math.IsNaN(r.power) {
				power[r.key] = r.power
			}
		}
	}
	latMS := durationsMS(lat)
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"ops_per_s":       {safeDiv(float64(attempted), wall.Seconds()), "1/s"},
		"latency_ms_p50":  {quantile(latMS, 0.5), "ms"},
		"latency_ms_p90":  {quantile(latMS, 0.9), "ms"},
		"success_ratio":   {1 - safeDiv(float64(failed), float64(attempted)), "1"},
		"cooling_power_w": {meanByKey(power), "W"},
		"rss_peak_mb":     {median(rssMiB), "MiB"},
	}
}

// safeDiv is a/b, or 0 when b is 0 (a layer the workload never reached).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanByKey averages one value per distinct key, in key order so the
// sum is reproducible.
func meanByKey(vals map[string]float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += vals[k]
	}
	return sum / float64(len(keys))
}

// layerMetrics are the per-layer figures of a traced run. Counts are per
// operation, averaged over the traced cycles; times are milliseconds per
// operation unless named as a percentile.
func layerMetrics(cycles []cycleRun, snap snapshot, extras map[string]float64) map[string]metric {
	var nTraced, nPlain int
	var wallTraced, wallPlain, cpuPlain time.Duration
	var allocPlain uint64
	var gcPlain uint32
	var cache evalcache.Stats
	var sc solverCounts
	latency := map[int64]time.Duration{}
	for _, cy := range cycles {
		if !cy.traced {
			nPlain += len(cy.recs)
			wallPlain += cy.wall
			cpuPlain += cy.cpu
			allocPlain += cy.alloc
			gcPlain += cy.numGC
			continue
		}
		nTraced += len(cy.recs)
		wallTraced += cy.wall
		addStats(&cache, cy.cache)
		for _, r := range cy.recs {
			sc.iterations += r.solver.iterations
			sc.funcEvals += r.solver.funcEvals
			sc.gradEvals += r.solver.gradEvals
			latency[r.id] = r.latency
		}
	}
	now := rec.snapshot()
	spans := rec.spansSince(snap)
	per := func(v float64) float64 { return safeDiv(v, float64(nTraced)) }
	perPlain := func(v float64) float64 { return safeDiv(v, float64(nPlain)) }

	count := map[string]float64{}
	total := map[string]time.Duration{}
	children := map[int64]time.Duration{}
	var batchPoints float64
	var handlerMS, transportMS []float64
	for _, s := range spans {
		count[s.Name]++
		total[s.Name] += s.dur()
		children[s.Parent] += s.dur()
		batchPoints += float64(s.Points)
		if s.Name == spanHandler {
			handlerMS = append(handlerMS, ms(s.dur()))
			if l, ok := latency[s.Op]; ok {
				transportMS = append(transportMS, ms(l-s.dur()))
			}
		}
	}
	var coreSelf time.Duration
	for _, s := range spans {
		if s.Name == spanCore {
			coreSelf += s.dur() - children[s.ID]
		}
	}
	var buildMS []float64
	for _, s := range rec.spansSince(snapshot{}) {
		if s.Name == spanBuild {
			buildMS = append(buildMS, ms(s.dur()))
		}
	}

	romEvals := float64(now.rom.Evaluations - snap.rom.Evaluations)
	romFall := float64(now.rom.Rejections - snap.rom.Rejections)
	lookups := float64(cache.Hits + cache.Waits + cache.Misses)
	out := map[string]metric{
		"serve.handler_ms_p50":      {quantile(handlerMS, 0.5), "ms"},
		"serve.transport_ms_p50":    {quantile(transportMS, 0.5), "ms"},
		"serve.throttled":           {per(extras["serve.throttled"]), "count"},
		"serve.pool_builds":         {per(extras["serve.pool_builds"]), "count"},
		"core.self_ms_per_op":       {per(ms(coreSelf)), "ms"},
		"solver.iterations_per_op":  {per(float64(sc.iterations)), "count"},
		"solver.func_evals_per_op":  {per(float64(sc.funcEvals)), "count"},
		"solver.grad_evals_per_op":  {per(float64(sc.gradEvals)), "count"},
		"evalcache.hits":            {per(float64(cache.Hits)), "count"},
		"evalcache.waits":           {per(float64(cache.Waits)), "count"},
		"evalcache.misses":          {per(float64(cache.Misses)), "count"},
		"evalcache.hit_ratio":       {safeDiv(float64(cache.Hits+cache.Waits), lookups), "1"},
		"evalcache.rotations":       {per(float64(cache.Rotations)), "count"},
		"evalcache.batch_points":    {per(float64(cache.BatchPoints)), "count"},
		"backend.evaluate_calls":    {per(count[spanEvaluate]), "count"},
		"backend.evaluate_ms":       {per(ms(total[spanEvaluate])), "ms"},
		"backend.batch_calls":       {per(count[spanBatch]), "count"},
		"backend.batch_points":      {per(batchPoints), "count"},
		"backend.batch_ms":          {per(ms(total[spanBatch])), "ms"},
		"backend.grad_calls":        {per(count[spanGrad]), "count"},
		"backend.grad_ms":           {per(ms(total[spanGrad])), "ms"},
		"backend.rom_answered":      {per(romEvals - romFall), "count"},
		"backend.rom_fallthrough":   {per(romFall), "count"},
		"backend.rom_answer_ratio":  {safeDiv(romEvals-romFall, romEvals), "1"},
		"sparse.cg_iters_per_solve": {safeDiv(float64(now.cgIters-snap.cgIters), float64(now.cgSolves-snap.cgSolves)), "count"},
		"thermal.build_ms":          {median(buildMS), "ms"},
		"process.cpu_s_per_op":      {perPlain(cpuPlain.Seconds()), "s"},
		"process.alloc_mb_per_op":   {perPlain(float64(allocPlain) / (1 << 20)), "MiB"},
		"process.gc_per_op":         {perPlain(float64(gcPlain)), "count"},
		"trace.overhead_ratio":      {safeDiv(per(wallTraced.Seconds()), perPlain(wallPlain.Seconds())), "1"},
	}
	return out
}

// writeAllReferences recomputes the committed reference answers.
func writeAllReferences(path string) error {
	ctx := context.Background()
	refs := references{}
	for _, k := range []struct {
		kind solveKind
		name string
	}{
		{kindTable2, "table2-oftec"},
		{kindZoned8, "zoned8-adjoint"},
		{kindSweep, "sweep-40x40"},
	} {
		ans, err := newSolveRunner(k.kind, k.name, 1, nil).reference(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		refs[k.name] = ans
	}
	return writeReferences(path, refs)
}
