package coolant

import "fmt"

// Spec kinds. The empty string means KindAir.
const (
	KindAir    = "air"
	KindLiquid = "liquid"
)

// Spec is the serializable coolant selection carried by a thermal
// configuration. It is a tagged union rather than an interface so it
// survives the configuration's JSON round-trip (SaveConfig/LoadConfig
// with unknown fields disallowed) and participates in every identity
// derived from the configuration JSON — the serve-pool key changes the
// moment the actuator does.
//
// A nil *Spec (the zero configuration) means air cooling with the
// configuration's Fan/HeatSink laws and no override recorded, which keeps
// pre-seam configuration JSON byte-identical.
type Spec struct {
	// Kind selects the actuator family: "air" (or empty) uses the
	// configuration's fan + heat-sink laws; "liquid" a pump-driven
	// cold-plate loop.
	Kind string
	// Liquid optionally overrides the loop calibration; nil selects
	// PaperLoop(). Ignored for air.
	Liquid *Liquid `json:",omitempty"`
	// PUE, when > 1, wraps the actuator in a Facility accounting layer:
	// reported actuator power is scaled to the facility meter. Zero (or
	// exactly 1) means no overhead.
	PUE float64 `json:",omitempty"`
	// Chips, when > 1, shares the actuator across an N-chip package via
	// the ColdPlate symmetric split: the model then represents one chip
	// of the package. Zero and 1 both mean a single chip.
	Chips int `json:",omitempty"`
}

// Validate reports whether the spec can resolve. A nil spec is valid (air).
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case "", KindAir, KindLiquid:
	default:
		return fmt.Errorf("coolant: unknown kind %q (have %s, %s)", s.Kind, KindAir, KindLiquid)
	}
	if s.Liquid != nil && s.Kind != KindLiquid {
		return fmt.Errorf("coolant: loop parameters given but kind is %q, not %q", s.Kind, KindLiquid)
	}
	if s.PUE != 0 && s.PUE < 1 {
		return fmt.Errorf("coolant: PUE %g must be at least 1 (or 0 for none)", s.PUE)
	}
	if s.Chips < 0 {
		return fmt.Errorf("coolant: chip count %d must be non-negative", s.Chips)
	}
	return nil
}

// Resolve builds the actuator the spec describes. The air parameters come
// from the enclosing configuration (its Fan/HeatSink fields) so an "air"
// spec is exactly the nil-spec path. Wrappers apply inside-out: the
// cold-plate share first (per-chip physics), then the facility meter
// (pure accounting on the shared drive's per-chip share).
func (s *Spec) Resolve(airFan FanSpec, airSink HeatSinkSpec) (Actuator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var act Actuator
	if s == nil || s.Kind == "" || s.Kind == KindAir {
		act = Air{Fan: airFan, Sink: airSink}
	} else {
		loop := PaperLoop()
		if s.Liquid != nil {
			loop = *s.Liquid
		}
		act = loop
	}
	if s != nil && s.Chips > 1 {
		act = ColdPlate{Base: act, Chips: s.Chips}
	}
	if s != nil && s.PUE > 1 {
		act = Facility{Base: act, PUE: s.PUE}
	}
	if err := act.Validate(); err != nil {
		return nil, err
	}
	return act, nil
}

// PackageChips returns the number of chips the resolved actuator serves:
// 1 for a single-chip assembly, the cold-plate share count for a package.
func (s *Spec) PackageChips() int {
	if s == nil || s.Chips < 1 {
		return 1
	}
	return s.Chips
}
