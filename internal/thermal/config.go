// Package thermal assembles the cooling package of Figure 2 into the
// equivalent electrical circuit of Section 4 and solves the steady-state
// heat balance G(ω)·T = P(ω, I_TEC) of constraint (14).
//
// The stack, bottom to top: PCB, chip (heat generating), TIM1, TEC layer
// (three circuit planes: absorption, generation, rejection, per Figure 4),
// heat spreader, TIM2, heat sink with the fan-dependent conductance
// g_HS&fan(ω) to ambient. Linear-in-temperature sources — the Peltier
// terms ±α·I·T and the Taylor-linearized leakage a·(T−Tref)+b — are folded
// into the system matrix so that one sparse solve yields the steady state,
// exactly as the paper observes for constraint (14). The exact exponential
// leakage model is available through an outer fixed-point iteration whose
// divergence signals thermal runaway.
package thermal

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"oftec/internal/coolant"
	"oftec/internal/floorplan"
	"oftec/internal/material"
	"oftec/internal/units"
)

// LayerSpec describes one square conduction layer of the assembly.
type LayerSpec struct {
	// Edge is the side length of the square layer footprint in meters.
	Edge float64
	// Thickness is the layer thickness in meters.
	Thickness float64
	// Material supplies conductivity and heat capacity.
	Material material.Material
}

// Validate reports whether the layer is physical.
func (l LayerSpec) Validate(name string) error {
	if l.Edge <= 0 || l.Thickness <= 0 {
		return fmt.Errorf("thermal: layer %s has non-positive dimensions (edge %g, thickness %g)", name, l.Edge, l.Thickness)
	}
	if err := l.Material.Validate(); err != nil {
		return fmt.Errorf("thermal: layer %s: %w", name, err)
	}
	return nil
}

// TECSpec describes the thermoelectric deployment with area-normalized
// module parameters, so results are independent of grid resolution: a cell
// of area A gets a module with α = SeebeckPerArea·A, R = ResistancePerArea·A
// (couples electrically in series), K = ConductancePerArea·A (thermally in
// parallel).
type TECSpec struct {
	// SeebeckPerArea is the areal Seebeck coefficient in V/(K·m²).
	SeebeckPerArea float64
	// ResistancePerArea is the areal electrical resistance in Ω/m².
	ResistancePerArea float64
	// ConductancePerArea is the areal thermal conductance in W/(K·m²).
	ConductancePerArea float64
	// MaxCurrent is the damage threshold I_TEC,max in A (constraint (17)).
	MaxCurrent float64
	// Thickness of the TEC layer in meters (lateral conduction path).
	Thickness float64
	// FillerConductivity is the conductivity (W/(m·K)) of the material
	// filling TEC-layer cells not covered by modules (over the caches).
	FillerConductivity float64
	// LateralConductivity is the in-plane conductivity of the TEC layer
	// material in W/(m·K), used for the generation-plane lateral coupling
	// that models mutual heating between adjacent TECs (refs [6][7]).
	LateralConductivity float64
	// Uncovered lists floorplan units whose footprint carries no TEC
	// modules (the paper leaves Icache and Dcache uncovered).
	Uncovered []string
}

// Validate reports whether the TEC deployment is physical.
func (t TECSpec) Validate() error {
	switch {
	case t.SeebeckPerArea <= 0:
		return fmt.Errorf("thermal: TEC areal Seebeck %g must be positive", t.SeebeckPerArea)
	case t.ResistancePerArea <= 0:
		return fmt.Errorf("thermal: TEC areal resistance %g must be positive", t.ResistancePerArea)
	case t.ConductancePerArea <= 0:
		return fmt.Errorf("thermal: TEC areal conductance %g must be positive", t.ConductancePerArea)
	case t.MaxCurrent <= 0:
		return fmt.Errorf("thermal: TEC max current %g must be positive", t.MaxCurrent)
	case t.Thickness <= 0:
		return fmt.Errorf("thermal: TEC layer thickness %g must be positive", t.Thickness)
	case t.FillerConductivity <= 0:
		return fmt.Errorf("thermal: TEC filler conductivity %g must be positive", t.FillerConductivity)
	case t.LateralConductivity <= 0:
		return fmt.Errorf("thermal: TEC lateral conductivity %g must be positive", t.LateralConductivity)
	}
	return nil
}

// LeakageSpec describes the chip's temperature-dependent leakage with a
// uniform areal density law P(T) = P0Density·area·exp(Beta·(T−T0)). The
// Taylor coefficients (a, b) of Equation (4) are produced by sampling the
// exponential at NumSamples points in [SampleLo, SampleHi] and regressing,
// reproducing the paper's McPAT procedure.
type LeakageSpec struct {
	// P0Density is the leakage power density at T0, in W/m².
	P0Density float64
	// Beta is the exponential slope in 1/K.
	Beta float64
	// T0 is the reference temperature in kelvin.
	T0 float64
	// Tref is the Taylor expansion point in kelvin.
	Tref float64
	// SampleLo, SampleHi, NumSamples define the regression sampling range
	// (the paper uses 300 K to 390 K with ten samples).
	SampleLo, SampleHi float64
	NumSamples         int
	// UnitMultipliers optionally scales the leakage density per floorplan
	// unit (SRAM arrays leak at a different density than random logic);
	// units not listed default to 1.
	UnitMultipliers map[string]float64 `json:",omitempty"`
}

// Validate reports whether the leakage specification is usable.
func (l LeakageSpec) Validate() error {
	switch {
	case l.P0Density < 0:
		return fmt.Errorf("thermal: leakage density %g must be non-negative", l.P0Density)
	case l.Beta < 0:
		return fmt.Errorf("thermal: leakage beta %g must be non-negative", l.Beta)
	case l.T0 <= 0 || l.Tref <= 0:
		return fmt.Errorf("thermal: leakage reference temperatures (T0=%g, Tref=%g) must be positive", l.T0, l.Tref)
	case l.SampleHi <= l.SampleLo:
		return fmt.Errorf("thermal: leakage sample range [%g, %g] is empty", l.SampleLo, l.SampleHi)
	case l.NumSamples < 2:
		return fmt.Errorf("thermal: leakage needs at least 2 regression samples, got %d", l.NumSamples)
	}
	for name, m := range l.UnitMultipliers {
		if m < 0 {
			return fmt.Errorf("thermal: leakage multiplier for unit %q is negative (%g)", name, m)
		}
	}
	return nil
}

// Config describes the complete cooling package assembly and its operating
// environment.
type Config struct {
	// Floorplan is the chip floorplan; unit coordinates define the global
	// coordinate system (all other layers are centered on the die).
	Floorplan *floorplan.Floorplan

	// Ambient is the ambient air temperature in kelvin (paper: 318 K).
	Ambient float64
	// TMax is the thermal threshold in kelvin (constraint (15), paper: 363 K).
	TMax float64

	// Layer geometry and materials (Table 1).
	PCB, Chip, TIM1, Spreader, TIM2, Sink LayerSpec

	// Grid resolutions (cells per edge) for the fine stack (chip, TIM1,
	// TEC planes), the spreader stack (spreader, TIM2), and the coarse
	// layers (sink, PCB).
	ChipRes, SpreaderRes, SinkRes, PCBRes int

	// TEC is the thermoelectric deployment.
	TEC TECSpec
	// HeatSink is the fan-speed-dependent sink-to-ambient conductance law
	// of the air actuator (Equation (9)).
	HeatSink coolant.HeatSinkSpec
	// Fan is the forced-convection cooler of the air actuator (Equation (8)).
	Fan coolant.FanSpec
	// Coolant optionally swaps the cooling actuator: nil (the zero
	// configuration, and what every pre-seam configuration deserializes
	// to) means air cooling through the Fan/HeatSink laws above,
	// bit-for-bit. A liquid spec replaces both the conductance law and
	// the drive-power law; PUE and Chips wrap whichever actuator is
	// selected. The spec participates in the configuration JSON, so the
	// serve-pool key and the ROM persistence identity change with it.
	Coolant *coolant.Spec `json:",omitempty"`
	// Leakage is the chip leakage model.
	Leakage LeakageSpec

	// PCBToAmbient is the total secondary-path conductance from the PCB to
	// ambient in W/K.
	PCBToAmbient float64

	// RunawayTemp is the chip temperature (kelvin) beyond which the
	// steady state is reported as thermal runaway. Zero selects 500 K.
	RunawayTemp float64
}

// MaxRes caps every layer's grid resolution, in cells per edge: 8× the
// paper's chip resolution of 16. A model's memory and build time grow with
// the square of the resolution (≈220 MiB at 128), so a configuration from
// an untrusted source cannot ask for an unbounded one.
const MaxRes = 128

// Validate checks the full configuration.
func (c *Config) Validate() error {
	if c.Floorplan == nil {
		return fmt.Errorf("thermal: config needs a floorplan")
	}
	if path, bad := nonFinite(reflect.ValueOf(c).Elem()); bad {
		return fmt.Errorf("thermal: config%s must be finite", path)
	}
	if err := c.Floorplan.Validate(1e-6); err != nil {
		return err
	}
	if c.Ambient <= 0 {
		return fmt.Errorf("thermal: ambient temperature %g must be positive kelvin", c.Ambient)
	}
	if c.TMax <= c.Ambient {
		return fmt.Errorf("thermal: TMax %g must exceed ambient %g", c.TMax, c.Ambient)
	}
	for _, l := range []struct {
		name string
		spec LayerSpec
	}{
		{"pcb", c.PCB}, {"chip", c.Chip}, {"tim1", c.TIM1},
		{"spreader", c.Spreader}, {"tim2", c.TIM2}, {"sink", c.Sink},
	} {
		if err := l.spec.Validate(l.name); err != nil {
			return err
		}
	}
	if c.ChipRes <= 0 || c.SpreaderRes <= 0 || c.SinkRes <= 0 || c.PCBRes <= 0 {
		return fmt.Errorf("thermal: grid resolutions must be positive (chip %d, spreader %d, sink %d, pcb %d)",
			c.ChipRes, c.SpreaderRes, c.SinkRes, c.PCBRes)
	}
	for _, l := range []struct {
		name string
		res  int
	}{{"chip", c.ChipRes}, {"spreader", c.SpreaderRes}, {"sink", c.SinkRes}, {"pcb", c.PCBRes}} {
		if l.res > MaxRes {
			return fmt.Errorf("thermal: %s grid resolution %d exceeds the cap of %d cells per edge", l.name, l.res, MaxRes)
		}
	}
	if err := c.TEC.Validate(); err != nil {
		return err
	}
	for _, name := range c.TEC.Uncovered {
		if _, ok := c.Floorplan.Unit(name); !ok {
			return fmt.Errorf("thermal: TEC uncovered unit %q not in floorplan", name)
		}
	}
	act, err := c.Actuator()
	if err != nil {
		return err
	}
	if err := act.Validate(); err != nil {
		return err
	}
	if err := c.Leakage.Validate(); err != nil {
		return err
	}
	for name := range c.Leakage.UnitMultipliers {
		if _, ok := c.Floorplan.Unit(name); !ok {
			return fmt.Errorf("thermal: leakage multiplier references unknown unit %q", name)
		}
	}
	if c.PCBToAmbient < 0 {
		return fmt.Errorf("thermal: PCB-to-ambient conductance %g must be non-negative", c.PCBToAmbient)
	}
	return nil
}

// nonFinite reports whether v holds a NaN or ±Inf in an exported field —
// everything the configuration's JSON carries, through its layer, TEC,
// leakage and coolant specs — and the field path below v of the first one.
// The floorplan's unit rectangles are unexported; Floorplan.Validate
// checks them. The range guards of Validate (x <= 0 and the like) all
// pass NaN.
func nonFinite(v reflect.Value) (string, bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		return "", math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return nonFinite(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInterface() {
				continue // unexported
			}
			if path, bad := nonFinite(f); bad {
				return "." + v.Type().Field(i).Name + path, true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if path, bad := nonFinite(v.Index(i)); bad {
				return fmt.Sprintf("[%d]%s", i, path), true
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		for _, k := range keys {
			if path, bad := nonFinite(v.MapIndex(k)); bad {
				return fmt.Sprintf("[%v]%s", k, path), true
			}
		}
	}
	return "", false
}

// Actuator resolves the cooling actuator this configuration drives: the
// air fan + heat-sink pair when Coolant is nil or names "air", otherwise
// whatever the spec selects. Resolution is a cheap value construction;
// the model resolves once at build time and callers that only need the
// command bound can use UMax.
func (c *Config) Actuator() (coolant.Actuator, error) {
	if c.Coolant == nil {
		return coolant.Air{Fan: c.Fan, Sink: c.HeatSink}, nil
	}
	return c.Coolant.Resolve(c.Fan, c.HeatSink)
}

// UMax returns the actuator command upper bound (constraint (16)
// generalized): the fan's ω_max under air cooling, the pump's maximum
// speed under a liquid loop. An unresolvable coolant spec returns 0,
// which every consumer rejects; Validate reports the underlying error.
func (c *Config) UMax() float64 {
	act, err := c.Actuator()
	if err != nil {
		return 0
	}
	return act.UMax()
}

// PackageChips returns how many chips share the configured actuator: 1
// for a single-chip assembly, the cold-plate count for a multi-chip
// package (the model then represents one chip of the package, and
// package-level power totals are PackageChips times the report).
func (c *Config) PackageChips() int { return c.Coolant.PackageChips() }

func (c *Config) runawayTemp() float64 {
	if c.RunawayTemp > 0 {
		return c.RunawayTemp
	}
	return 500
}

// DefaultConfig returns the paper's experimental setup: Table 1 layer
// geometry, the Section 6.1 constants (ambient 45 °C, T_max 90 °C,
// ω_max 524 rad/s, I_max 5 A, c = 1.6e-7 J·s², g_HS&fan law), the EV6
// floorplan, TECs everywhere except the L1 caches, and leakage calibrated
// for 22 nm (runaway without forced convection).
func DefaultConfig() Config {
	fp := floorplan.AlphaEV6()
	return Config{
		Floorplan: fp,
		Ambient:   units.CToK(45),
		TMax:      units.CToK(90),

		PCB:      LayerSpec{Edge: units.MM(60), Thickness: units.MM(1.5), Material: material.FR4},
		Chip:     LayerSpec{Edge: floorplan.EV6DieSize, Thickness: units.Micron(15), Material: material.Silicon},
		TIM1:     LayerSpec{Edge: floorplan.EV6DieSize, Thickness: units.Micron(20), Material: material.TIM},
		Spreader: LayerSpec{Edge: units.MM(30), Thickness: units.MM(1), Material: material.Copper},
		TIM2:     LayerSpec{Edge: units.MM(30), Thickness: units.Micron(20), Material: material.TIM},
		Sink:     LayerSpec{Edge: units.MM(60), Thickness: units.MM(7), Material: material.Copper},

		ChipRes:     16,
		SpreaderRes: 15,
		SinkRes:     12,
		PCBRes:      8,

		TEC: TECSpec{
			SeebeckPerArea:      1500,  // V/(K·m²): 1.5 mV/K per 1 mm² module
			ResistancePerArea:   4000,  // Ω/m²: 4 mΩ per 1 mm² module
			ConductancePerArea:  1.0e5, // W/(K·m²): 0.1 W/K per 1 mm² module
			MaxCurrent:          5,
			Thickness:           units.Micron(25),
			FillerConductivity:  3.0, // gap filler over the caches
			LateralConductivity: material.Superlattice.Conductivity,
			Uncovered:           floorplan.CacheUnits,
		},
		HeatSink: coolant.PaperHeatSink(),
		Fan:      coolant.PaperFan(),
		Leakage: LeakageSpec{
			P0Density:  2.4e4, // ≈ 6.1 W over the die at T0
			Beta:       0.030,
			T0:         units.CToK(45),
			Tref:       units.CToK(75),
			SampleLo:   300,
			SampleHi:   390,
			NumSamples: 10,
		},
		PCBToAmbient: 0.3,
	}
}
