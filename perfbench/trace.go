package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oftec/internal/backend"
	"oftec/internal/power"
	"oftec/internal/thermal"
)

// Span names. Each names the module whose public function the span
// times, so per-layer metrics read straight off the name.
const (
	spanBuild    = "thermal.build"
	spanCore     = "core.run"
	spanHandler  = "serve.handler"
	spanEvaluate = "backend.evaluate"
	spanBatch    = "backend.batch"
	spanGrad     = "backend.grad"
	spanExact    = "backend.exact"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (zero for a root); Op is the benchmark operation it belongs
// to. Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Points is the operating-point count of a batch call.
	Points int `json:"points,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef is the identity a child span needs from its parent.
type spanRef struct{ id, op int64 }

type spanKey struct{}

// withSpan returns ctx carrying ref as the parent of calls made under it.
func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

// recorder keeps every span in memory until the run ends. Spans are
// recorded only by the tracing decorator and the benchmark's own wrappers
// around calls into the program; the program itself is not instrumented.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	// current is the root span of the operation in flight, for the
	// workloads that keep exactly one operation in flight. Backend calls
	// reached through APIs that take no context attach to it.
	current atomic.Pointer[spanRef]

	mu       sync.Mutex
	spans    []span
	cgIters  int64
	cgSolves int64
	wrappers []*traced
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is a span that has started and not yet finished.
type active struct {
	r *recorder
	s span
}

// start opens a span under parent.
func (r *recorder) start(parent spanRef, name string) active {
	return active{r: r, s: span{
		Name:   name,
		ID:     r.nextID.Add(1),
		Parent: parent.id,
		Op:     parent.op,
		Start:  time.Since(r.t0).Nanoseconds(),
	}}
}

// root opens the root span of operation op.
func (r *recorder) root(op int64, name string) active {
	return r.start(spanRef{op: op}, name)
}

func (a active) ref() spanRef { return spanRef{id: a.s.ID, op: a.s.Op} }

// finish closes the span and keeps it.
func (a active) finish() {
	a.s.End = time.Since(a.r.t0).Nanoseconds()
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// parentOf resolves the parent of a backend call: the span carried by
// ctx when there is one, else the operation in flight.
func (r *recorder) parentOf(ctx context.Context) spanRef {
	if ctx != nil {
		if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
			return ref
		}
	}
	if cur := r.current.Load(); cur != nil {
		return *cur
	}
	return spanRef{}
}

// noteResult counts the sparse-solver iterations a returned steady state
// reports. Reduced-order answers carry no sparse solve and are skipped.
func (r *recorder) noteResult(res *thermal.Result) {
	if res == nil || res.SolveStats.Iterations == 0 {
		return
	}
	r.mu.Lock()
	r.cgIters += int64(res.SolveStats.Iterations)
	r.cgSolves++
	r.mu.Unlock()
}

// snapshot is the recorder's state at one instant; per-layer metrics are
// differences of two snapshots taken around the traced cycles.
type snapshot struct {
	spans    int
	cgIters  int64
	cgSolves int64
	rom      thermal.ROMStats
}

func (r *recorder) snapshot() snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := snapshot{spans: len(r.spans), cgIters: r.cgIters, cgSolves: r.cgSolves}
	for _, w := range r.wrappers {
		st := w.ROMStats()
		s.rom.Evaluations += st.Evaluations
		s.rom.Rejections += st.Rejections
	}
	return s
}

// spansSince copies the spans recorded after snapshot s.
func (r *recorder) spansSince(s snapshot) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[s.spans:]...)
}

// write dumps every span as JSON lines, in start order.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			//lint:ignore errdrop the encode error is the one being reported
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		//lint:ignore errdrop the flush error is the one being reported
		f.Close()
		return err
	}
	return f.Close()
}

// tracePrefix marks the registered tracing variants of the program's
// backends: "trace.full" is the "full" backend behind the decorator.
const tracePrefix = "trace."

// tracedBackends are the backends the workloads select; each gets a
// tracing variant registered under tracePrefix+name.
var tracedBackends = []string{"full", "rom", "liquid"}

// rec is the process-wide recorder the registered tracing backends
// report to. Registration is fixed at start-up, so the factories reach
// the recorder through this variable rather than a parameter.
var rec = newRecorder()

func init() {
	for _, name := range tracedBackends {
		name := name
		backend.Register(tracePrefix+name, func(m *thermal.Model) (backend.Plant, error) {
			p, err := backend.FromModel(name, m)
			if err != nil {
				return nil, err
			}
			return rec.wrap(p), nil
		})
	}
}

// traced is the tracing decorator: an Evaluator that times every
// Evaluate, EvaluateBatch, EvaluateGrad and EvaluateExact call into the
// evaluator it wraps and forwards every capability the backend layer
// probes for. Capability resolution through the decorator lands on the
// same target as through the wrapped evaluator, decorated in turn:
//
//   - Fallthrough returns the decorated fall-through sibling, or the
//     decorator itself at the end of the chain, so Authoritative stops on
//     the decorated authoritative backend;
//   - EvaluateGrad forwards to backend.GradientOf of the wrapped chain, so
//     a reduced-order backend still borrows its full sibling's gradients;
//   - EvaluateBatch forwards to the wrapped BatchEvaluator (every backend
//     the workloads select has one);
//   - Model, WithZoning, NewZoning and Select forward, decorating the
//     evaluators they return.
type traced struct {
	inner backend.Evaluator
	rec   *recorder

	mu   sync.Mutex
	fall *traced
	sel  map[string]*traced
}

// wrap decorates ev. Decorated reduced-order backends are remembered so
// their traffic counters can be read back; nothing else is retained, so
// the models of finished operations can be collected.
func (r *recorder) wrap(ev backend.Evaluator) *traced {
	t := &traced{inner: ev, rec: r, sel: map[string]*traced{}}
	if _, ok := ev.(romCounter); ok {
		r.mu.Lock()
		r.wrappers = append(r.wrappers, t)
		r.mu.Unlock()
	}
	return t
}

// romCounter is the reduced-order backend's traffic-counter accessor.
type romCounter interface{ ROMStats() thermal.ROMStats }

// Name reports the wrapped backend's name, so name-keyed lookups
// (core's backend selection, the serve pool) behave as without tracing.
func (t *traced) Name() string { return t.inner.Name() }

// Config returns the wrapped backend's configuration.
func (t *traced) Config() thermal.Config { return t.inner.Config() }

// Evaluate times one steady-state evaluation.
func (t *traced) Evaluate(ctx context.Context, op backend.OpPoint, warm []float64) (*thermal.Result, error) {
	a := t.rec.start(t.rec.parentOf(ctx), spanEvaluate)
	res, err := t.inner.Evaluate(ctx, op, warm)
	a.finish()
	t.rec.noteResult(res)
	return res, err
}

// EvaluateBatch times one blocked evaluation.
func (t *traced) EvaluateBatch(ctx context.Context, ops []backend.OpPoint, warm []float64) ([]*thermal.Result, error) {
	be, ok := t.inner.(backend.BatchEvaluator)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %q cannot evaluate batches", t.inner.Name())
	}
	a := t.rec.start(t.rec.parentOf(ctx), spanBatch)
	a.s.Points = len(ops)
	res, err := be.EvaluateBatch(ctx, ops, warm)
	a.finish()
	for _, r := range res {
		t.rec.noteResult(r)
	}
	return res, err
}

// EvaluateGrad times one adjoint gradient, resolved through the wrapped
// fall-through chain.
func (t *traced) EvaluateGrad(ctx context.Context, op backend.OpPoint) (*thermal.Gradient, error) {
	ge, ok := backend.GradientOf(t.inner)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %q offers no gradients", t.inner.Name())
	}
	a := t.rec.start(t.rec.parentOf(ctx), spanGrad)
	g, err := ge.EvaluateGrad(ctx, op)
	a.finish()
	return g, err
}

// EvaluateExact times one exact-leakage verification.
func (t *traced) EvaluateExact(omega, itec float64) (*thermal.Result, error) {
	ex, ok := t.inner.(backend.ExactEvaluator)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %q cannot verify exactly", t.inner.Name())
	}
	a := t.rec.start(t.rec.parentOf(nil), spanExact)
	res, err := ex.EvaluateExact(omega, itec)
	a.finish()
	return res, err
}

// Fallthrough returns the decorated fall-through sibling, or the
// decorator itself when the wrapped evaluator ends the chain.
func (t *traced) Fallthrough() backend.Evaluator {
	f, ok := t.inner.(backend.Fallthrough)
	if !ok {
		return t
	}
	next := f.Fallthrough()
	if next == nil || next == t.inner {
		return t
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fall == nil || t.fall.inner != next {
		t.fall = t.rec.wrap(next)
	}
	return t.fall
}

// Model returns the physics model underneath the wrapped chain.
func (t *traced) Model() *thermal.Model {
	m, _ := backend.ModelOf(t.inner)
	return m
}

// ROMStats reports the wrapped reduced-order backend's traffic, zero for
// any other backend.
func (t *traced) ROMStats() thermal.ROMStats {
	if r, ok := t.inner.(romCounter); ok {
		return r.ROMStats()
	}
	return thermal.ROMStats{}
}

// WithZoning decorates the wrapped backend's zoned evaluator.
func (t *traced) WithZoning(z *thermal.Zoning) (backend.Evaluator, error) {
	zn, ok := t.inner.(backend.Zoner)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %q cannot evaluate zoned points", t.inner.Name())
	}
	ev, err := zn.WithZoning(z)
	if err != nil {
		return nil, err
	}
	return t.rec.wrap(ev), nil
}

// NewZoning forwards zone construction.
func (t *traced) NewZoning(assign map[string]int, numZones int) (*thermal.Zoning, error) {
	zn, ok := t.inner.(backend.Zoner)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %q cannot evaluate zoned points", t.inner.Name())
	}
	return zn.NewZoning(assign, numZones)
}

// Select decorates the named sibling, memoized so repeated selections
// share one decorator (and one evaluation-cache binding upstream).
func (t *traced) Select(name string) (backend.Evaluator, error) {
	s, ok := t.inner.(backend.Selector)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %q cannot select %q", t.inner.Name(), name)
	}
	t.mu.Lock()
	w, hit := t.sel[name]
	t.mu.Unlock()
	if hit {
		return w, nil
	}
	ev, err := s.Select(name)
	if err != nil {
		return nil, err
	}
	if ev == t.inner {
		return t, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if w, hit := t.sel[name]; hit {
		return w, nil
	}
	w = t.rec.wrap(ev)
	t.sel[name] = w
	return w, nil
}

// plant returns the wrapped evaluator's plant capabilities.
func (t *traced) plant() (backend.Plant, error) {
	p, ok := t.inner.(backend.Plant)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %q is not a plant", t.inner.Name())
	}
	return p, nil
}

// NewTransient forwards to the wrapped plant.
func (t *traced) NewTransient(omega, itec float64, t0 []float64) (backend.Transient, error) {
	p, err := t.plant()
	if err != nil {
		return nil, err
	}
	return p.NewTransient(omega, itec, t0)
}

// SetDynamicPower forwards to the wrapped plant.
func (t *traced) SetDynamicPower(dyn power.Map) error {
	p, err := t.plant()
	if err != nil {
		return err
	}
	return p.SetDynamicPower(dyn)
}

// DynamicPowerTotal forwards to the wrapped plant.
func (t *traced) DynamicPowerTotal() float64 {
	p, err := t.plant()
	if err != nil {
		return 0
	}
	return p.DynamicPowerTotal()
}

// InstantaneousPowers forwards to the wrapped plant.
func (t *traced) InstantaneousPowers(temps []float64, itec float64) (leak, tec float64, err error) {
	p, err := t.plant()
	if err != nil {
		return 0, 0, err
	}
	return p.InstantaneousPowers(temps, itec)
}
