// Package core implements OFTEC (Algorithm 1 of the paper): the joint
// optimization of fan speed ω and TEC driving current I_TEC that minimizes
// the cooling power 𝒫 = P_leakage + P_TEC + P_fan subject to the thermal
// constraint (Optimization 1), bootstrapped by the maximum-temperature
// minimization (Optimization 2) that supplies a feasible starting point.
// The package also implements the paper's two baselines (variable-speed
// fan without TECs, fixed-speed fan without TECs) and the TEC-only system
// used to demonstrate thermal runaway.
//
// The optimizer never touches the thermal model directly: every steady
// state comes from a backend.Evaluator ("full" or "rom") behind the shared
// evalcache, so the scalar and zoned paths share one bounded cache and one
// set of statistics.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"oftec/internal/backend"
	"oftec/internal/evalcache"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/units"
)

// Mode selects which actuators the controller may use. The paper's
// fairness adjustment (baselines keep the TEC stack's conduction, with the
// modules unpowered) makes every mode share one thermal network: a mode is
// a restriction of the decision space, with I_TEC = 0 recovering pure
// conduction through the TEC layer.
type Mode int

const (
	// ModeHybrid optimizes both ω and I_TEC (OFTEC).
	ModeHybrid Mode = iota
	// ModeVariableFan optimizes ω with the TECs unpowered (baseline 1).
	ModeVariableFan
	// ModeFixedFan pins ω to the paper's 2000 RPM with the TECs unpowered
	// (baseline 2).
	ModeFixedFan
	// ModeTECOnly optimizes I_TEC with the fan off (the runaway demo).
	ModeTECOnly
)

// String names the mode as the paper's figures label it.
func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "OFTEC"
	case ModeVariableFan:
		return "Var. ω"
	case ModeFixedFan:
		return "Fixed ω"
	case ModeTECOnly:
		return "TEC only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// modeNames spells each Mode the one way cmd/oftec's -mode flag and
// oftecd's mode field accept it.
var modeNames = [...]string{
	ModeHybrid:      "oftec",
	ModeVariableFan: "var",
	ModeFixedFan:    "fixed",
	ModeTECOnly:     "teconly",
}

// ParseMode returns the mode spelled s (see modeNames).
func ParseMode(s string) (Mode, error) { return parseName[Mode]("mode", modeNames[:], s) }

// parseName returns the enum value whose one spelling in names is s.
func parseName[T ~int](kind string, names []string, s string) (T, error) {
	for v, name := range names {
		if s == name {
			return T(v), nil
		}
	}
	return 0, fmt.Errorf("core: unknown %s %q (want %s)", kind, s, strings.Join(names, ", "))
}

// Method selects the nonlinear programming technique (Section 5.2).
type Method int

const (
	// MethodSQP is the active-set SQP method the paper selected.
	MethodSQP Method = iota
	// MethodInteriorPoint is the log-barrier comparator.
	MethodInteriorPoint
	// MethodTrustRegion is the trust-region comparator.
	MethodTrustRegion
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodSQP:
		return "active-set SQP"
	case MethodInteriorPoint:
		return "interior point"
	case MethodTrustRegion:
		return "trust region"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

func (m Method) run(p *solver.Problem, x0 []float64, opts solver.Options) (solver.Report, error) {
	switch m {
	case MethodSQP:
		return solver.ActiveSetSQP(p, x0, opts)
	case MethodInteriorPoint:
		return solver.InteriorPoint(p, x0, opts)
	case MethodTrustRegion:
		return solver.TrustRegion(p, x0, opts)
	default:
		return solver.Report{}, fmt.Errorf("core: unknown method %d", int(m))
	}
}

// methodNames spells each Method the one way cmd/oftec's -method flag
// and oftecd's method field accept it; it also labels the method's stage
// in fallback chains.
var methodNames = [...]string{
	MethodSQP:           "sqp",
	MethodInteriorPoint: "interior",
	MethodTrustRegion:   "trust",
}

// ParseMethod returns the method spelled s (see methodNames).
func ParseMethod(s string) (Method, error) { return parseName[Method]("method", methodNames[:], s) }

// chainName is the method's stage label in fallback chains.
func (m Method) chainName() string {
	if m < 0 || int(m) >= len(methodNames) {
		return fmt.Sprintf("method-%d", int(m))
	}
	return methodNames[m]
}

// fallbackChain builds the degradation ladder for a run with
// Options.Fallback: the selected method first, then the solver package's
// default chain (SQP → interior point) with the selected method
// deduplicated.
func (m Method) fallbackChain() []solver.NamedRunner {
	chain := []solver.NamedRunner{{Name: m.chainName(), Run: m.run}}
	for _, stage := range solver.DefaultFallbackChain() {
		if stage.Name == m.chainName() {
			continue
		}
		chain = append(chain, stage)
	}
	return chain
}

// System couples a thermal backend with the optimization machinery. All
// steady-state evaluations — scalar and zoned — go through one shared
// evalcache.Cache, so the objective
// and constraint share one backend solve per operating point. It is safe
// for concurrent use: concurrent misses on the same quantized key coalesce
// onto a single in-flight solve (singleflight), and the bounded cache
// evicts by rotating generations so at most half the working set is
// dropped at once — never the whole cache mid-optimization.
type System struct {
	ev    backend.Evaluator
	cache *evalcache.Cache

	// bindings memoizes one cached evaluator per zoning (*thermal.Zoning →
	// *evalcache.Binding; nil is the one-zone deployment), so repeated
	// runs and evaluations — every request a service answers for the same
	// chip and zoning — share one cache key space instead of opening a
	// fresh one per call. Lookups take no lock; bindMu only serializes
	// building a missing binding, so a zoning is never bound twice while
	// its binding is resident. Past maxZonedBindings zoned bindings the
	// memo drops every zoned one (see binding).
	bindMu   sync.Mutex
	bindings sync.Map
	zoned    int // zoned bindings resident; guarded by bindMu
}

// CacheStats counts evaluation-cache traffic; totals are cumulative for
// the System's lifetime, across the scalar and zoned paths.
type CacheStats = evalcache.Stats

// NewSystem wraps a thermal backend (see backend.FromModel / backend.New)
// over an evaluation cache of its own, of the default capacity.
func NewSystem(ev backend.Evaluator) *System { return NewSystemShared(ev, evalcache.New(0)) }

// NewSystemShared wraps a backend over a caller-owned evaluation cache,
// so several Systems — one per chip configuration in a model pool — share
// one bounded cache, one eviction budget, and one set of traffic
// statistics, and cross-System duplicate operating points coalesce.
func NewSystemShared(ev backend.Evaluator, cache *evalcache.Cache) *System {
	s := &System{ev: ev, cache: cache}
	s.bindings.Store((*thermal.Zoning)(nil), cache.Bind(ev))
	return s
}

// Backend returns the evaluator the system was built on.
func (s *System) Backend() backend.Evaluator { return s.ev }

// Config returns the thermal configuration under optimization.
func (s *System) Config() thermal.Config { return s.ev.Config() }

// CacheStats returns a snapshot of the evaluation-cache counters.
func (s *System) CacheStats() CacheStats { return s.cache.Stats() }

// EvaluateContext returns the (cached) steady state at op under zoning
// (nil is the one-zone deployment, op carrying one current; otherwise op
// carries one current per zone), using the system's default backend.
// Concurrent callers requesting the same quantized point share one solve.
// warm is an optional warm-start temperature field (length NumNodes),
// typically the T of a neighboring operating point; it only steers the
// iterative solver on a genuine cache miss — hits and coalesced waits
// return the already-solved result and ignore it. A point's answer agrees
// with any other hint's to solver tolerance, and the first solve's hint
// fixes the cached bits every later caller gets. The warm slice is read,
// never written. A cancelled ctx releases coalesced waiters immediately
// (the leader's solve runs to completion for the benefit of other
// callers), so a client deadline never wedges a service handler on
// someone else's solve.
func (s *System) EvaluateContext(ctx context.Context, zoning *thermal.Zoning, op backend.OpPoint, warm []float64) (*thermal.Result, error) {
	bnd, err := s.binding(zoning)
	if err != nil {
		return nil, err
	}
	return bnd.Evaluate(ctx, op, warm)
}

// maxZonedBindings bounds the zoned bindings a System keeps. Past the
// bound they clear wholesale, like the thermal result memo: a zoning seen
// again is bound afresh, to a new cache key space.
const maxZonedBindings = 16

// binding resolves a zoning to its cached evaluator, memoized while
// resident. A nil zoning evaluates on the system's backend itself (bound
// at construction, never cleared); any other goes through its Zoner
// capability.
func (s *System) binding(zoning *thermal.Zoning) (*evalcache.Binding, error) {
	if bnd, ok := s.bindings.Load(zoning); ok {
		return bnd.(*evalcache.Binding), nil
	}
	s.bindMu.Lock()
	defer s.bindMu.Unlock()
	if bnd, ok := s.bindings.Load(zoning); ok {
		return bnd.(*evalcache.Binding), nil
	}
	zoner, ok := s.ev.(backend.Zoner)
	if !ok {
		return nil, fmt.Errorf("core: backend %q cannot evaluate zoned operating points", s.ev.Name())
	}
	ev, err := zoner.WithZoning(zoning)
	if err != nil {
		return nil, err
	}
	if s.zoned >= maxZonedBindings {
		s.bindings.Range(func(k, _ any) bool {
			if k.(*thermal.Zoning) != nil {
				s.bindings.Delete(k)
			}
			return true
		})
		s.zoned = 0
	}
	bnd := s.cache.Bind(ev)
	s.bindings.Store(zoning, bnd)
	s.zoned++
	return bnd, nil
}

// vecEval is the steady-state evaluation of a decision vector
// x = (ω, I_1..I_k).
type vecEval func(x []float64) (*thermal.Result, error)

// bindingEval evaluates through the shared cache, warm-starting every
// cache miss from warm (nil starts cold).
func bindingEval(bnd *evalcache.Binding, warm []float64) vecEval {
	return func(x []float64) (*thermal.Result, error) {
		return bnd.Evaluate(context.Background(), backend.OpPoint{Omega: x[0], Currents: x[1:]}, warm)
	}
}

// phaseFuncs builds one Algorithm 1 phase's objective and constraints
// over an evaluator.
type phaseFuncs func(eval vecEval) (f solver.Func, cons []solver.Func)

// anchoredProblem is one phase's problem over bnd's box [lower, upper]:
// F and Cons evaluate cold, and Near re-anchors them. Near(x, nil)
// anchors on the incumbent x, so every solve the solver asks for near
// x_k — its upper finite-difference probes and line-search trials —
// starts CG at x_k's temperature field. Near(x, up) anchors a lower probe
// on its upper probe's reflection, so it starts CG at 2·T(x_k) − T(up),
// where the derivative's two probes differ from x_k by one step of
// opposite sign. The solver has just evaluated both points, so both
// fields are in the cache; Near reads them through Binding.Anchor, which
// leaves them out of the hit count, and builds the reflection only when a
// solve will use it. A runaway incumbent has no field and anchors cold,
// and so does a reflection through it.
func anchoredProblem(bnd *evalcache.Binding, phase phaseFuncs, lower, upper []float64) *solver.Problem {
	cold := bindingEval(bnd, nil)
	f, cons := phase(cold)
	field := func(x []float64) []float64 {
		r, err := bnd.Anchor(context.Background(), backend.OpPoint{Omega: x[0], Currents: x[1:]})
		if err == nil && !r.Runaway {
			return r.T
		}
		return nil
	}
	return &solver.Problem{
		F: f, Cons: cons, Lower: lower, Upper: upper,
		Near: func(x, up []float64) (solver.Func, []solver.Func) {
			if up == nil {
				return phase(bindingEval(bnd, field(x)))
			}
			return phase(reflectedEval(bnd, field, x, up))
		},
	}
}

// reflectedEval evaluates through the shared cache, warm-starting a
// genuine miss from 2·T(x) − T(up), with field fetching each point's
// temperature field; when either has none, it starts from T(x), or cold.
// The reflection is built on demand in a pooled buffer, which goes back
// to the pool once the solve that read it has returned.
func reflectedEval(bnd *evalcache.Binding, field func([]float64) []float64, x, up []float64) vecEval {
	return func(y []float64) (*thermal.Result, error) {
		var buf *[]float64
		hint := func() []float64 {
			t0, t1 := field(x), field(up)
			if t0 == nil || t1 == nil {
				return t0
			}
			buf = fields.Get().(*[]float64)
			if cap(*buf) < len(t0) {
				*buf = make([]float64, len(t0))
			}
			w := (*buf)[:len(t0)]
			for i := range w {
				w[i] = 2*t0[i] - t1[i]
			}
			return w
		}
		r, err := bnd.EvaluateHint(context.Background(), backend.OpPoint{Omega: y[0], Currents: y[1:]}, hint)
		if buf != nil {
			fields.Put(buf)
		}
		return r, err
	}
}

// fields pools the buffers reflectedEval builds its warm fields in.
var fields = sync.Pool{New: func() any { return new([]float64) }}

// maxTempObj is the 𝒯 objective; runaway maps to the Infeasible sentinel.
func maxTempObj(eval vecEval, x []float64) float64 {
	r, err := eval(x)
	if err != nil || r.Runaway {
		return solver.Infeasible
	}
	return r.MaxChipTemp
}

// coolingPowerObj is the 𝒫 objective.
func coolingPowerObj(eval vecEval, x []float64) float64 {
	r, err := eval(x)
	if err != nil || r.Runaway {
		return solver.Infeasible
	}
	return r.CoolingPower()
}

// bounds returns the decision-variable box for a mode over k control
// zones; x = (ω, I_1..I_k). Every zone shares the mode's current limits —
// a mode restricts actuators, not the zone layout.
func (s *System) bounds(mode Mode, k int) (lower, upper []float64, err error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("core: bounds need at least one control zone, got %d", k)
	}
	cfg := s.ev.Config()
	lower = make([]float64, 1+k)
	upper = make([]float64, 1+k)
	setCurrents := func(limit float64) {
		for i := 1; i <= k; i++ {
			upper[i] = limit
		}
	}
	uMax := cfg.UMax()
	switch mode {
	case ModeHybrid:
		upper[0] = uMax
		setCurrents(cfg.TEC.MaxCurrent)
	case ModeVariableFan:
		upper[0] = uMax
	case ModeFixedFan:
		fixed := units.RPMToRadPerSec(2000)
		if fixed > uMax {
			return nil, nil, fmt.Errorf("core: fixed actuator command %g outside [0, %g]", fixed, uMax)
		}
		lower[0], upper[0] = fixed, fixed
	case ModeTECOnly:
		setCurrents(cfg.TEC.MaxCurrent)
	default:
		return nil, nil, fmt.Errorf("core: unknown mode %d", int(mode))
	}
	return lower, upper, nil
}
