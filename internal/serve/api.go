// Package serve is the service layer behind cmd/oftecd: a stdlib-only
// HTTP front end that answers evaluate/optimize/sweep/Pareto queries over
// JSON for a fleet of chip configurations under concurrent traffic.
//
// The production concerns live here, decoupled from transport details so
// they are testable with httptest:
//
//   - A model pool keyed by the canonical rendering of (benchmark,
//     backend, full thermal configuration), so concurrent requests for
//     one chip share a single assembled thermal.Model (and ROM basis)
//     behind one core.System — the model build itself is singleflighted.
//     Every spec that resolved is also indexed by its value, so a chip
//     spelled as before is found with one map read.
//   - One shared internal/evalcache across every pooled system, so
//     cross-request duplicate operating points coalesce onto one solve
//     and the cache's capacity/eviction budget is global, not per chip.
//   - Admission control: a bounded number of in-flight working requests;
//     beyond it, requests wait briefly for a slot and are then refused
//     with 429 + Retry-After instead of piling up goroutines.
//   - Per-request deadlines riding the context plumbing: the solver
//     stops at the next iteration boundary and reports best-so-far.
//   - Streaming optimizer progress: per-iterate solver.TraceRecords as
//     chunked NDJSON, ahead of the final outcome.
package serve

import (
	"fmt"
	"sort"
	"strings"

	"oftec/internal/backend"
	"oftec/internal/coolant"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// ChipSpec identifies one chip configuration in the fleet. The zero value
// selects the paper's package at service resolution (chip 8, spreader 7,
// sink 6, PCB 4 cells per edge) under the Basicmath workload on the full
// backend.
type ChipSpec struct {
	// Bench is the workload name (Table 2 spelling); empty = Basicmath.
	Bench string `json:"bench,omitempty"`
	// Res overrides the chip-layer grid resolution (cells per edge);
	// zero keeps the default and a negative value is refused.
	Res int `json:"res,omitempty"`
	// PaperRes selects the paper's full grid resolutions instead of the
	// reduced service default (Res still overrides the chip layer).
	PaperRes bool `json:"paper_res,omitempty"`
	// TMaxC overrides the thermal threshold, °C.
	TMaxC float64 `json:"tmax_c,omitempty"`
	// AmbientC overrides the ambient temperature, °C.
	AmbientC float64 `json:"ambient_c,omitempty"`
	// Backend names the evaluation backend ("full", "rom"); empty = full.
	Backend string `json:"backend,omitempty"`
	// Coolant names the cooling actuator variant ("air", "liquid",
	// "liquid-dc", "liquid-package"); empty = air, the paper's fan. The
	// "liquid" and "package" backends run their own coolant, and a
	// different coolant named next to them is refused.
	Coolant string `json:"coolant,omitempty"`
}

// config materializes the spec into a validated thermal configuration.
func (c ChipSpec) config() (thermal.Config, error) {
	cfg := thermal.DefaultConfig()
	if !c.PaperRes {
		cfg.ChipRes = 8
		cfg.SpreaderRes = 7
		cfg.SinkRes = 6
		cfg.PCBRes = 4
	}
	switch {
	case c.Res < 0:
		return thermal.Config{}, fmt.Errorf("serve: chip res %d is negative", c.Res)
	case c.Res > 0:
		cfg.ChipRes = c.Res
	}
	if c.TMaxC != 0 {
		cfg.TMax = units.CToK(c.TMaxC)
	}
	if c.AmbientC != 0 {
		cfg.Ambient = units.CToK(c.AmbientC)
	}
	spec, err := coolant.SpecByName(c.Coolant)
	if err != nil {
		return thermal.Config{}, err
	}
	if err := backend.CheckCoolant(c.Backend, c.Coolant); err != nil {
		return thermal.Config{}, fmt.Errorf("serve: chip %w", err)
	}
	cfg.Coolant = spec
	if err := cfg.Validate(); err != nil {
		return thermal.Config{}, err
	}
	return cfg, nil
}

// bench resolves the workload, defaulting to Basicmath.
func (c ChipSpec) bench() (workload.Benchmark, error) {
	name := c.Bench
	if name == "" {
		name = "Basicmath"
	}
	return workload.ByName(name)
}

// ZoneSpec selects a TEC control zoning for zoned requests. Exactly one
// of the three fields must be set.
type ZoneSpec struct {
	// Zones spreads the floorplan units that own TEC-covered cells
	// round-robin over this many zones, the rest riding in zone 0
	// (thermal.Model.SpreadZoning) — the uniform high-density layout.
	Zones int `json:"zones,omitempty"`
	// Clusters selects the canonical 3-zone EV6 clustering (cache
	// periphery / FP cluster / integer cluster).
	Clusters bool `json:"clusters,omitempty"`
	// ZoneOf is an explicit unit → zone assignment covering every unit.
	ZoneOf map[string]int `json:"zone_of,omitempty"`
}

// check refuses a spec that does not set exactly one of its fields,
// naming the fields it sets.
func (z *ZoneSpec) check() error {
	var set [3]string
	n := 0
	if z.Zones != 0 {
		set[n] = "zones"
		n++
	}
	if z.Clusters {
		set[n] = "clusters"
		n++
	}
	if len(z.ZoneOf) > 0 {
		set[n] = "zone_of"
		n++
	}
	switch n {
	case 0:
		return fmt.Errorf("serve: zoning spec selects nothing (set zones, clusters, or zone_of)")
	case 1:
		return nil
	}
	return fmt.Errorf("serve: zoning spec sets %s; set exactly one of zones, clusters, or zone_of", strings.Join(set[:n], " and "))
}

// canon renders the spec canonically for memoization keys.
func (z *ZoneSpec) canon() string {
	switch {
	case z == nil:
		return "scalar"
	case len(z.ZoneOf) > 0:
		names := make([]string, 0, len(z.ZoneOf))
		for n := range z.ZoneOf {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("explicit:")
		for _, n := range names {
			fmt.Fprintf(&b, "%s=%d,", n, z.ZoneOf[n])
		}
		return b.String()
	case z.Clusters:
		return "clusters"
	default:
		return fmt.Sprintf("rr:%d", z.Zones)
	}
}

// EvaluateRequest asks for one steady-state evaluation. Scalar requests
// set ITecA; zoned requests set CurrentsA plus Zoning (len(CurrentsA)
// must equal the zone count).
type EvaluateRequest struct {
	Chip      ChipSpec  `json:"chip"`
	OmegaRPM  float64   `json:"omega_rpm"`
	ITecA     float64   `json:"itec_a,omitempty"`
	CurrentsA []float64 `json:"currents_a,omitempty"`
	Zoning    *ZoneSpec `json:"zoning,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// EvaluateResponse is one steady state.
type EvaluateResponse struct {
	OmegaRPM        float64   `json:"omega_rpm"`
	ITecA           float64   `json:"itec_a,omitempty"`
	CurrentsA       []float64 `json:"currents_a,omitempty"`
	Runaway         bool      `json:"runaway"`
	MaxTempC        float64   `json:"max_temp_c,omitempty"`
	CoolingPowerW   float64   `json:"cooling_power_w,omitempty"`
	LeakageW        float64   `json:"leakage_w,omitempty"`
	TECW            float64   `json:"tec_w,omitempty"`
	FanW            float64   `json:"fan_w,omitempty"`
	MeetsConstraint bool      `json:"meets_constraint"`
}

// OptimizeRequest runs Algorithm 1 (or a baseline mode) on one chip.
type OptimizeRequest struct {
	Chip ChipSpec `json:"chip"`
	// Mode: "oftec" (default), "var", "fixed", "teconly".
	Mode string `json:"mode,omitempty"`
	// Method: "sqp" (default), "interior", "trust".
	Method string `json:"method,omitempty"`
	// Zoning switches to zoned control (one current per zone).
	Zoning     *ZoneSpec `json:"zoning,omitempty"`
	MultiStart bool      `json:"multistart,omitempty"`
	Fallback   bool      `json:"fallback,omitempty"`
	// Opt2Only solves only the feasibility phase (minimize max temp).
	Opt2Only bool `json:"opt2_only,omitempty"`
	// Stream selects chunked NDJSON: per-iterate trace records, then the
	// final outcome.
	Stream    bool `json:"stream,omitempty"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
}

// OptimizeResponse reports the chosen operating point.
type OptimizeResponse struct {
	Feasible     bool      `json:"feasible"`
	FailedAtOpt2 bool      `json:"failed_at_opt2,omitempty"`
	OmegaRPM     float64   `json:"omega_rpm"`
	ITecA        float64   `json:"itec_a,omitempty"`
	CurrentsA    []float64 `json:"currents_a,omitempty"`
	MaxTempC     float64   `json:"max_temp_c,omitempty"`
	CoolingW     float64   `json:"cooling_power_w,omitempty"`
	MinMaxTempC  float64   `json:"min_max_temp_c,omitempty"`
	RuntimeMS    int64     `json:"runtime_ms"`
	FuncEvals    int       `json:"func_evals"`
	// Opt1Stopped / Opt2Stopped are the solver stop reasons ("converged",
	// "cancelled", ...; empty = phase not run). A request that hit its
	// deadline reports "cancelled" with the best point found so far.
	Opt1Stopped string `json:"opt1_stopped,omitempty"`
	Opt2Stopped string `json:"opt2_stopped,omitempty"`
}

// SweepRequest samples the 𝒯/𝒫 surfaces on an NOmega×NI grid.
type SweepRequest struct {
	Chip      ChipSpec `json:"chip"`
	NOmega    int      `json:"n_omega"`
	NI        int      `json:"n_i"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

// SweepPoint is one surface sample.
type SweepPoint struct {
	OmegaRPM float64 `json:"omega_rpm"`
	ITecA    float64 `json:"itec_a"`
	MaxTempC float64 `json:"max_temp_c,omitempty"`
	PowerW   float64 `json:"power_w,omitempty"`
	Runaway  bool    `json:"runaway,omitempty"`
}

// SweepResponse is the grid in row-major (ω, then I) order.
type SweepResponse struct {
	NOmega int          `json:"n_omega"`
	NI     int          `json:"n_i"`
	Points []SweepPoint `json:"points"`
}

// ParetoRequest traces the power/temperature trade-off over thresholds.
type ParetoRequest struct {
	Chip      ChipSpec  `json:"chip"`
	TMaxC     []float64 `json:"tmax_c"`
	Method    string    `json:"method,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// ParetoPointJSON is one threshold probe.
type ParetoPointJSON struct {
	TMaxC    float64 `json:"tmax_c"`
	Feasible bool    `json:"feasible"`
	PowerW   float64 `json:"power_w,omitempty"`
	MaxTempC float64 `json:"max_temp_c,omitempty"`
	OmegaRPM float64 `json:"omega_rpm,omitempty"`
	ITecA    float64 `json:"itec_a,omitempty"`
}

// ParetoResponse is the front in descending-threshold order.
type ParetoResponse struct {
	Points []ParetoPointJSON `json:"points"`
}

// StatzResponse is the /statz snapshot: uptime, the model pool, the
// shared cache, the blocked multi-RHS evaluation counters, and request
// traffic.
type StatzResponse struct {
	UptimeS float64    `json:"uptime_s"`
	Pool    PoolStats  `json:"pool"`
	Cache   CacheStats `json:"cache"`
	Batch   BatchStats `json:"batch"`
	Req     ReqStats   `json:"requests"`
}

// BatchStats describes blocked multi-RHS evaluation traffic.
type BatchStats struct {
	// Batches counts EvaluateBatch calls that reached the shared cache.
	Batches int64 `json:"batches"`
	// BatchPoints is the total operating points submitted in them; each
	// point still lands in the cache's hits/waits/misses.
	BatchPoints int64 `json:"batch_points"`
}

// PoolStats describes the model pool.
type PoolStats struct {
	// Models is the number of resident (floorplan, config) entries.
	Models int `json:"models"`
	// Builds counts model constructions — with pooling it stays at one
	// per distinct chip no matter how many requests raced on admission.
	Builds int64 `json:"builds"`
}

// CacheStats mirrors evalcache.Stats plus occupancy.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Waits     int64 `json:"waits"`
	Misses    int64 `json:"misses"`
	Rotations int64 `json:"rotations"`
	Len       int   `json:"len"`
	Capacity  int   `json:"capacity"`
}

// ReqStats counts request traffic.
type ReqStats struct {
	Total     int64 `json:"total"`
	Errors    int64 `json:"errors"`
	Throttled int64 `json:"throttled"`
	InFlight  int64 `json:"in_flight"`
	Evaluate  int64 `json:"evaluate"`
	Optimize  int64 `json:"optimize"`
	Sweep     int64 `json:"sweep"`
	Pareto    int64 `json:"pareto"`
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}
