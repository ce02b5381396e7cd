// Package controller implements the runtime thermal-management policies
// discussed by the paper around OFTEC: the threshold and hysteresis TEC
// controllers of reference [5] (used as dynamic baselines), the
// look-up-table controller the paper proposes for making OFTEC's solutions
// available instantly, and the transient TEC-current boost of reference
// [8] (+1 A for ~1 s) that bridges the gap until a fresh OFTEC solution is
// ready. Controllers drive the thermal model's transient simulation.
package controller

import (
	"fmt"
	"math"
	"sort"

	"oftec/internal/units"
)

// Controller decides the cooling operating point from the observed peak
// chip temperature. Implementations may keep state (hysteresis, timers).
type Controller interface {
	// Name identifies the policy in traces and reports.
	Name() string
	// Act returns the (ω, I_TEC) to apply at simulated time t given the
	// currently observed maximum chip temperature (kelvin).
	Act(t, maxChipTemp float64) (omega, itec float64)
}

// Threshold is reference [5]'s threshold-based controller: the TECs switch
// ON at a fixed current when the temperature exceeds TOn and OFF as soon
// as it drops back below. The fan runs at a constant speed.
type Threshold struct {
	// Omega is the fixed fan speed in rad/s.
	Omega float64
	// IOn is the TEC drive current when active, in A.
	IOn float64
	// TOn is the switching threshold in kelvin.
	TOn float64

	on bool
}

// Name implements Controller.
func (c *Threshold) Name() string { return "threshold" }

// Act implements Controller.
func (c *Threshold) Act(t, maxChipTemp float64) (float64, float64) {
	c.on = maxChipTemp > c.TOn
	if c.on {
		return c.Omega, c.IOn
	}
	return c.Omega, 0
}

// Hysteresis is reference [5]'s maximum-cooling-based controller: it adds
// a hysteresis band to reduce the number of ON/OFF transitions (which
// stress the TECs). ON above THigh, OFF below TLow < THigh.
type Hysteresis struct {
	Omega float64
	IOn   float64
	// THigh and TLow bound the hysteresis band in kelvin.
	THigh, TLow float64

	on bool
}

// Name implements Controller.
func (c *Hysteresis) Name() string { return "hysteresis" }

// Act implements Controller.
func (c *Hysteresis) Act(t, maxChipTemp float64) (float64, float64) {
	switch {
	case maxChipTemp > c.THigh:
		c.on = true
	case maxChipTemp < c.TLow:
		c.on = false
	}
	if c.on {
		return c.Omega, c.IOn
	}
	return c.Omega, 0
}

// Static pins the operating point; the degenerate controller used for
// comparison runs.
type Static struct {
	Omega, ITEC float64
}

// Name implements Controller.
func (c *Static) Name() string { return "static" }

// Act implements Controller.
func (c *Static) Act(t, maxChipTemp float64) (float64, float64) { return c.Omega, c.ITEC }

// Boost implements the transient cooling strategy of Section 6.2 (after
// ref [8]): run at a base operating point, and during the first Duration
// seconds drive the TECs DeltaI above the base current. The Peltier effect
// responds immediately while the extra Joule heat arrives with the stack's
// thermal time constant, so the boost buys cooling while a fresh OFTEC
// solution is being computed.
type Boost struct {
	BaseOmega, BaseITEC float64
	// DeltaI is the extra current during the boost (the paper suggests
	// about 1 A).
	DeltaI float64
	// Duration is the boost length in seconds (the paper suggests ~1 s).
	Duration float64
}

// Name implements Controller.
func (c *Boost) Name() string { return "boost" }

// Act implements Controller.
func (c *Boost) Act(t, maxChipTemp float64) (float64, float64) {
	if t < c.Duration {
		return c.BaseOmega, c.BaseITEC + c.DeltaI
	}
	return c.BaseOmega, c.BaseITEC
}

// TracePoint is one sample of a closed-loop simulation.
type TracePoint struct {
	Time     float64 // s
	MaxTempC float64 // °C
	Omega    float64 // rad/s
	ITEC     float64 // A
}

// CountTECTransitions counts ON/OFF switches of the TEC drive in a trace —
// the metric reference [5]'s hysteresis controller is designed to reduce.
func CountTECTransitions(trace []TracePoint) int {
	n := 0
	for i := 1; i < len(trace); i++ {
		prevOn := trace[i-1].ITEC > 0
		curOn := trace[i].ITEC > 0
		if prevOn != curOn {
			n++
		}
	}
	return n
}

// PeakTemp returns the maximum chip temperature (°C) over a trace.
func PeakTemp(trace []TracePoint) float64 {
	peak := math.Inf(-1)
	for _, p := range trace {
		peak = math.Max(peak, p.MaxTempC)
	}
	return peak
}

// LUTEntry is one precomputed OFTEC solution.
type LUTEntry struct {
	// TotalPower is the dynamic power level (W) the entry was solved for.
	TotalPower float64
	// Omega and ITEC are the precomputed (ω*, I*_TEC).
	Omega, ITEC float64
}

// LUT is the look-up-table controller the paper proposes in Section 6.2:
// OFTEC solutions are precomputed offline for a set of power levels; at
// run time the controller classifies the current power level and returns
// the stored solution immediately (no optimization in the loop).
type LUT struct {
	entries []LUTEntry // sorted by TotalPower
}

// NewLUT builds a LUT from precomputed entries; entries are sorted by
// power level and must be non-empty with distinct levels.
func NewLUT(entries []LUTEntry) (*LUT, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("controller: LUT needs at least one entry")
	}
	sorted := append([]LUTEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TotalPower < sorted[j].TotalPower })
	for i := 1; i < len(sorted); i++ {
		if units.ApproxEqual(sorted[i].TotalPower, sorted[i-1].TotalPower, units.EpsPower) {
			return nil, fmt.Errorf("controller: duplicate LUT power level %g", sorted[i].TotalPower)
		}
	}
	return &LUT{entries: sorted}, nil
}

// Entries returns the table contents (sorted by power level).
func (l *LUT) Entries() []LUTEntry { return l.entries }

// Lookup returns the stored solution whose power level is nearest to, and
// not below, the requested one (conservative: when between two levels, the
// hotter entry's stronger cooling is chosen). Requests above the table's
// range return the highest entry.
func (l *LUT) Lookup(totalPower float64) (omega, itec float64) {
	i := sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].TotalPower >= totalPower
	})
	if i == len(l.entries) {
		i = len(l.entries) - 1
	}
	return l.entries[i].Omega, l.entries[i].ITEC
}
