// Package coolant defines the actuator seam between the thermal model and
// whatever moves heat from the sink plane to ambient. The paper hard-wires
// one actuator — an axial fan with the cubic power law of Equation (8) and
// the logarithmic conductance law of Equation (9) — but the steady-state
// balance G(u)·T = P(T, u, I) of constraint (14) only ever consumes two
// scalar functions of the actuator command u: the sink-to-ambient
// conductance g(u) and the actuator's own electrical power P(u), plus
// their derivatives for the adjoint gradient. Everything else in the
// repository (assembly, ROM affine decomposition, optimizer bounds,
// serving) is actuator-agnostic once expressed against this contract.
//
// Three families implement it:
//
//   - Air: the paper's fan + heat-sink pair, computing Equation (8)'s
//     P = c·ω³ and Equation (9)'s g = p·ln(qω) + r itself from the plain
//     FanSpec/HeatSinkSpec data a configuration carries. The specs have
//     no methods, so code outside this package reaches the laws only
//     through Actuator.
//   - Liquid: a pump-driven cold-plate loop — pump speed u sets the
//     volumetric flow, the capacity rate ṁ·c_p caps the effective
//     conductance through an ε-NTU law, and pump power follows the
//     affinity law P = c·u³.
//   - Wrappers: Facility folds a datacenter PUE overhead into the
//     reported cooling power; ColdPlate shares one actuator across the
//     N chips of a multi-chip package.
//
// The serializable Spec selects and parameterizes an actuator inside a
// thermal configuration without the configuration naming concrete types.
package coolant

import (
	"fmt"
	"strings"
)

// Actuator is the cooling-actuator contract consumed by the thermal model.
// The command u generalizes the paper's fan speed ω: for the air instance
// it is ω in rad/s, for the liquid loop it is the pump speed. Implementations
// must be immutable value types — the thermal model resolves the actuator
// once at construction and shares it across concurrent evaluations.
type Actuator interface {
	// Name identifies the actuator family for diagnostics.
	Name() string
	// Validate reports whether the actuator parameters are physical.
	Validate() error
	// UMax is the upper bound on the actuator command (constraint (16)
	// generalized): ω_max for the fan, the maximum pump speed for a loop.
	UMax() float64
	// Power is the actuator's electrical power draw at command u, the
	// P_fan term of the cooling power 𝒫 (Equation (10)) generalized.
	Power(u float64) float64
	// DPowerDU is dP/du, zero on any clamped branch.
	DPowerDU(u float64) float64
	// Conductance is the sink-to-ambient thermal conductance g(u) in W/K
	// (Equation (9) generalized): continuous, monotone nondecreasing,
	// and well-defined at u = 0.
	Conductance(u float64) float64
	// DConductanceDU is dg/du, exactly zero on any saturated branch so
	// optimizers see a clean flat region rather than derivative noise.
	DConductanceDU(u float64) float64
}

// Names returns the registered coolant variant names accepted by
// SpecByName (and therefore by the -coolant CLI flags and the oftecd
// chip-spec field), in the order they are documented.
func Names() []string {
	return []string{"air", "liquid", "liquid-dc", "liquid-package"}
}

// SpecByName resolves a registered coolant variant name to its Spec. The
// empty string and "air" return a nil Spec — the paper's fan path with no
// override recorded in the configuration, keeping existing configuration
// JSON (and every hash derived from it) byte-identical. Unknown names
// error with the full registered list so a typo'd -coolant flag fails
// fast instead of deep in model setup.
func SpecByName(name string) (*Spec, error) {
	switch name {
	case "", "air":
		return nil, nil
	case "liquid":
		return &Spec{Kind: KindLiquid}, nil
	case "liquid-dc":
		return &Spec{Kind: KindLiquid, PUE: DatacenterPUE}, nil
	case "liquid-package":
		return &Spec{Kind: KindLiquid, Chips: DefaultPackageChips}, nil
	}
	return nil, fmt.Errorf("coolant: unknown coolant %q (registered: %s)", name, strings.Join(Names(), ", "))
}
