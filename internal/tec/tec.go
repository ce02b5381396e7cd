// Package tec models thin-film thermoelectric coolers (TECs): the Peltier,
// conduction, and Joule heating terms of Equations (1)-(3) of the paper,
// and the three-sub-layer circuit element of Figure 4 (heat absorption at
// the cold node, Joule generation at the middle node, heat rejection at
// the hot node). The thermal package does not import this package: it
// assembles the same circuit per grid cell from its own areal TECSpec, and
// Element documents that circuit and checks it against Equation (1).
package tec

import (
	"fmt"
	"math"
)

// Device holds the parameters of one TEC unit (one module covering one grid
// cell in the deployment). Values are module-level: a module made of n
// series N-P couples with per-couple Seebeck coefficient s has Seebeck = n·s.
type Device struct {
	// Seebeck is the module Seebeck coefficient α in V/K.
	Seebeck float64
	// Resistance is the module electrical resistance R_TEC in Ω.
	Resistance float64
	// Conductance is the module thermal conductance K_TEC in W/K.
	Conductance float64
	// MaxCurrent is the damage threshold I_TEC,max in A (constraint (17)).
	MaxCurrent float64
}

// DefaultModule is the 1 mm² thin-film module tiled over the die in the
// OFTEC experiments (DESIGN.md §6): modest per-module Seebeck voltage and
// milliohm resistance, so hundreds of series-connected modules draw a few
// amperes at a few volts.
func DefaultModule() Device {
	return Device{Seebeck: 1.5e-3, Resistance: 4e-3, Conductance: 0.1, MaxCurrent: 5}
}

// Validate reports whether the device parameters are physical.
func (d Device) Validate() error {
	switch {
	case d.Seebeck <= 0:
		return fmt.Errorf("tec: Seebeck coefficient %g must be positive", d.Seebeck)
	case d.Resistance <= 0:
		return fmt.Errorf("tec: electrical resistance %g must be positive", d.Resistance)
	case d.Conductance <= 0:
		return fmt.Errorf("tec: thermal conductance %g must be positive", d.Conductance)
	case d.MaxCurrent <= 0:
		return fmt.Errorf("tec: maximum current %g must be positive", d.MaxCurrent)
	}
	return nil
}

// ColdSideHeat returns q̇_c, the heat absorbed per unit time from the cold
// side (Equation (1) with N=1): α·T_c·I − K·ΔT − ½R·I². T_c is in kelvin
// and ΔT = T_h − T_c.
func (d Device) ColdSideHeat(tc, dT, i float64) float64 {
	return d.Seebeck*tc*i - d.Conductance*dT - 0.5*d.Resistance*i*i
}

// HotSideHeat returns q̇_h, the heat released per unit time to the hot side
// (Equation (2) with N=1): α·T_h·I − K·ΔT + ½R·I².
func (d Device) HotSideHeat(th, dT, i float64) float64 {
	return d.Seebeck*th*i - d.Conductance*dT + 0.5*d.Resistance*i*i
}

// Power returns the electrical power drawn by the device (Equation (3) with
// N=1): α·ΔT·I + R·I². It equals HotSideHeat − ColdSideHeat.
func (d Device) Power(dT, i float64) float64 {
	return d.Seebeck*dT*i + d.Resistance*i*i
}

// COP returns the coefficient of performance q̇_c / P_TEC, or 0 when the
// device draws no power.
func (d Device) COP(tc, dT, i float64) float64 {
	p := d.Power(dT, i)
	if p <= 0 {
		return 0
	}
	return d.ColdSideHeat(tc, dT, i) / p
}

// OptimalCurrent returns the current that maximizes cold-side heat pumping
// for a given cold-side temperature: d q̇_c/dI = α·T_c − R·I = 0.
func (d Device) OptimalCurrent(tc float64) float64 {
	return d.Seebeck * tc / d.Resistance
}

// MaxCooling returns the maximum heat that can be pumped from the cold side
// at temperature tc with ΔT across the device: q̇_c at the optimal current.
func (d Device) MaxCooling(tc, dT float64) float64 {
	return d.ColdSideHeat(tc, dT, d.OptimalCurrent(tc))
}

// MaxDeltaT returns the largest temperature difference the device can
// sustain with zero net cold-side heat at cold-side temperature tc:
// setting q̇_c = 0 at the optimal current gives ΔT_max = α²T_c²/(2RK).
func (d Device) MaxDeltaT(tc float64) float64 {
	a := d.Seebeck * tc
	return a * a / (2 * d.Resistance * d.Conductance)
}

// FigureOfMerit returns the dimensionless ZT̄ = α²·T̄/(R·K) evaluated at the
// mean temperature tMean.
func (d Device) FigureOfMerit(tMean float64) float64 {
	return d.Seebeck * d.Seebeck * tMean / (d.Resistance * d.Conductance)
}

// Element is the three-node circuit view of one TEC (Figure 4), the
// circuit the thermal package's assembly implements per grid cell: the
// cold (absorption) node couples to the layer below, the mid (generation)
// node carries the Joule source, and the hot (rejection) node couples to
// the layer above. Both internal couplings have conductance 2·K_TEC so
// the series combination equals K_TEC.
type Element struct {
	dev Device
}

// NewElement wraps a validated device in its circuit view.
func NewElement(d Device) (Element, error) {
	if err := d.Validate(); err != nil {
		return Element{}, err
	}
	return Element{dev: d}, nil
}

// Device returns the underlying device parameters.
func (e Element) Device() Device { return e.dev }

// InternalConductance returns the cold–mid and mid–hot coupling (2·K_TEC).
func (e Element) InternalConductance() float64 { return 2 * e.dev.Conductance }

// ColdSourceCoefficient returns the coefficient of T_c in the cold-node
// heat source: p_cold = −α·I·T_c (Equation (5)), so the returned value is
// −α·I.
func (e Element) ColdSourceCoefficient(i float64) float64 { return -e.dev.Seebeck * i }

// HotSourceCoefficient returns the coefficient of T_h in the hot-node heat
// source: p_hot = +α·I·T_h (Equation (6)).
func (e Element) HotSourceCoefficient(i float64) float64 { return e.dev.Seebeck * i }

// JouleSource returns the temperature-independent Joule heat R·I² injected
// at the mid node (the R_TEC·I² term of Equation (7); the α·ΔT·I part of
// the element's power consumption emerges from the two Peltier sources).
func (e Element) JouleSource(i float64) float64 { return e.dev.Resistance * i * i }

// VerifyEquation1 checks that the three-node circuit reproduces Equation
// (1) for the given operating point; it returns the absolute error between
// the circuit's cold-side heat flow and the closed form. Used by tests.
func (e Element) VerifyEquation1(tc, th, i float64) float64 {
	// Steady state of the internal nodes: T_mid = (T_c+T_h)/2 + R·I²/(4K).
	k2 := e.InternalConductance()
	tMid := (tc+th)/2 + e.JouleSource(i)/(2*k2)
	// Heat flowing from the cold node into the TEC interior plus the
	// Peltier absorption must equal q̇_c.
	circuit := -e.ColdSourceCoefficient(i)*tc - k2*(tMid-tc)
	closed := e.dev.ColdSideHeat(tc, th-tc, i)
	return math.Abs(circuit - closed)
}
