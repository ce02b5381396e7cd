package coolant

import (
	"fmt"
	"math"
)

// FanSpec is the variable-speed axial fan of the air actuator: the
// parameters of Equation (8). It is plain data a configuration carries;
// the law itself is Air's.
type FanSpec struct {
	// C is the power constant c in J·s² of Equation (8): P = c·ω³.
	// The paper estimates c = 1.6e-7 J·s² from ref [11].
	C float64
	// OmegaMax is the maximum rotational speed in rad/s (constraint (16)).
	// The paper uses 524 rad/s (5000 RPM).
	OmegaMax float64
}

// HeatSinkSpec is the collective thermal conductance of heat sink plus
// fan as a function of fan speed, the parameters of Equation (9):
// g = p·ln(q·ω) + r for large ω, saturating below at the natural-convection
// conductance g_HS. It is plain data a configuration carries; the law
// itself is Air's.
type HeatSinkSpec struct {
	// P and R are the fitting parameters p and r in W/K (the paper uses
	// 0.97 and -0.25).
	P, R float64
	// Q makes the logarithm argument dimensionless; the paper sets q = 1 s.
	Q float64
	// GHS is the still-air heat sink conductance g_HS in W/K (paper: 0.525).
	GHS float64
}

// PaperFan returns the paper's fan constants (Section 6.1): c = 1.6e-7 J·s²,
// ω_max = 524 rad/s (5000 RPM).
func PaperFan() FanSpec { return FanSpec{C: 1.6e-7, OmegaMax: 524} }

// PaperHeatSink returns the paper's heat-sink+fan conductance law
// (Section 6.1): p = 0.97, r = -0.25, q = 1 s, g_HS = 0.525 W/K.
func PaperHeatSink() HeatSinkSpec { return HeatSinkSpec{P: 0.97, R: -0.25, Q: 1, GHS: 0.525} }

// Air is the paper's forced-convection actuator: Equation (8) fan power
// and the Equation (9) conductance law. The command u is the fan speed ω
// in rad/s.
type Air struct {
	Fan  FanSpec
	Sink HeatSinkSpec
}

// PaperAir returns the air actuator with the paper's Section 6.1 constants.
func PaperAir() Air { return Air{Fan: PaperFan(), Sink: PaperHeatSink()} }

// Name implements Actuator.
func (a Air) Name() string { return "air" }

// Validate implements Actuator.
func (a Air) Validate() error {
	switch {
	case a.Sink.P <= 0:
		return fmt.Errorf("coolant: conductance slope p=%g must be positive", a.Sink.P)
	case a.Sink.Q <= 0:
		return fmt.Errorf("coolant: normalization q=%g must be positive", a.Sink.Q)
	case a.Sink.GHS <= 0:
		return fmt.Errorf("coolant: still-air conductance g_HS=%g must be positive", a.Sink.GHS)
	case a.Fan.C <= 0:
		return fmt.Errorf("coolant: fan power constant %g must be positive", a.Fan.C)
	case a.Fan.OmegaMax <= 0:
		return fmt.Errorf("coolant: fan maximum speed %g must be positive", a.Fan.OmegaMax)
	}
	return nil
}

// UMax implements Actuator: the fan's ω_max (constraint (16)).
func (a Air) UMax() float64 { return a.Fan.OmegaMax }

// Power implements Actuator: P = c·ω³ (Equation (8)), zero on the clamped
// branch ω ≤ 0.
func (a Air) Power(u float64) float64 {
	if u <= 0 {
		return 0
	}
	return a.Fan.C * u * u * u
}

// DPowerDU implements Actuator: 3·c·ω², the explicit fan term of the
// power objective's gradient; zero for ω ≤ 0.
func (a Air) DPowerDU(u float64) float64 {
	if u <= 0 {
		return 0
	}
	return 3 * a.Fan.C * u * u
}

// Conductance implements Actuator: p·ln(q·ω)+r clipped below by the
// natural-convection floor g_HS (Equation (9)), so that g is continuous,
// nondecreasing, and well-defined at ω = 0.
func (a Air) Conductance(u float64) float64 {
	s := a.Sink
	if u <= 0 {
		return s.GHS
	}
	g := s.P*math.Log(s.Q*u) + s.R
	if g < s.GHS {
		return s.GHS
	}
	return g
}

// DConductanceDU implements Actuator: p/ω above the g_HS crossover,
// exactly zero on the saturated branch.
func (a Air) DConductanceDU(u float64) float64 {
	if u <= a.CrossoverU() {
		return 0
	}
	return a.Sink.P / u
}

// CrossoverU returns the command at which the logarithmic law meets the
// still-air floor: p·ln(qω)+r = g_HS, the knee the saturation property
// tests probe.
func (a Air) CrossoverU() float64 {
	s := a.Sink
	return math.Exp((s.GHS-s.R)/s.P) / s.Q
}

// Sample is one (speed, conductance) observation used for curve fitting.
type Sample struct {
	Omega float64 // rad/s
	G     float64 // W/K
}

// FitLogLaw fits g = p·ln(ω) + r to the samples by ordinary least squares
// in the transformed variable x = ln(ω), reproducing the paper's fitting
// step for Equation (9) (with q fixed to 1 s). At least two samples with
// distinct speeds are required; all speeds must be positive.
func FitLogLaw(samples []Sample) (p, r float64, err error) {
	if len(samples) < 2 {
		return 0, 0, fmt.Errorf("coolant: need at least 2 samples to fit, got %d", len(samples))
	}
	var sx, sy, sxx, sxy float64
	for _, s := range samples {
		if s.Omega <= 0 {
			return 0, 0, fmt.Errorf("coolant: sample speed %g must be positive", s.Omega)
		}
		x := math.Log(s.Omega)
		sx += x
		sy += s.G
		sxx += x * x
		sxy += x * s.G
	}
	n := float64(len(samples))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("coolant: samples have identical speeds; slope is undetermined")
	}
	p = (n*sxy - sx*sy) / den
	r = (sy - p*sx) / n
	return p, r, nil
}

// ConvectionReference generates (ω, g) samples from a first-principles
// forced-convection model, mirroring the HotSpot 5 calculation the paper
// fit its law to: the sink-to-ambient conductance is h(v)·A_eff with a
// laminar fin-channel correlation h ∝ v^0.25 and air velocity proportional
// to fan speed. The defaults are calibrated so the fitted slope p lands
// near the paper's 0.97 over the operating range 50-524 rad/s.
type ConvectionReference struct {
	// EffectiveArea is the wetted fin area in m².
	EffectiveArea float64
	// VelocityPerOmega converts fan speed (rad/s) to duct air speed (m/s).
	VelocityPerOmega float64
	// HCoeff scales the convection correlation h = HCoeff · v^0.25 in
	// W/(m²·K) per (m/s)^0.25 (developed laminar flow through the fin
	// channels has a weak velocity dependence, which is what makes the
	// logarithmic law of Equation (9) such a good fit).
	HCoeff float64
	// GBase is the conduction part of the sink path in W/K.
	GBase float64
}

// DefaultConvectionReference returns a reference model calibrated to the
// paper's operating range.
func DefaultConvectionReference() ConvectionReference {
	return ConvectionReference{
		EffectiveArea:    0.0240, // 60×60 mm base with finned multiplier
		VelocityPerOmega: 0.0125,
		HCoeff:           134.7,
		GBase:            1.0,
	}
}

// Conductance returns the physical-model conductance at fan speed omega.
func (c ConvectionReference) Conductance(omega float64) float64 {
	if omega <= 0 {
		return c.GBase
	}
	v := c.VelocityPerOmega * omega
	h := c.HCoeff * math.Pow(v, 0.25)
	return c.GBase + h*c.EffectiveArea
}

// Samples evaluates the reference model at n log-spaced speeds in
// [omegaMin, omegaMax].
func (c ConvectionReference) Samples(omegaMin, omegaMax float64, n int) ([]Sample, error) {
	if n < 2 {
		return nil, fmt.Errorf("coolant: need n >= 2 samples, got %d", n)
	}
	if omegaMin <= 0 || omegaMax <= omegaMin {
		return nil, fmt.Errorf("coolant: invalid speed range [%g, %g]", omegaMin, omegaMax)
	}
	out := make([]Sample, n)
	logMin, logMax := math.Log(omegaMin), math.Log(omegaMax)
	for i := 0; i < n; i++ {
		w := math.Exp(logMin + (logMax-logMin)*float64(i)/float64(n-1))
		out[i] = Sample{Omega: w, G: c.Conductance(w)}
	}
	return out, nil
}
