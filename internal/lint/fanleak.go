package lint

// FanLeakAnalyzer guards the coolant-actuator seam: outside internal/fan
// (the air-mover physics) and internal/coolant (the seam itself), no
// package may reference the concrete fan.Fan or fan.HeatSinkModel types.
// Consumers program against coolant.Actuator — Power, Conductance, and
// their derivatives — so a liquid loop, a PUE wrapper, or a multi-chip
// cold plate slots in without touching the thermal stack. A direct fan
// reference re-couples a consumer to one actuator technology and silently
// bypasses the seam.
//
// The analyzer reports, everywhere except the exempt packages:
//
//   - any identifier that resolves to the Fan or HeatSinkModel type of a
//     package whose import path ends in "internal/fan" (declarations,
//     conversions, type assertions, composite literals). The coolant
//     package's FanSpec/HeatSinkSpec aliases are its own type names and
//     stay legal: carrying air parameters is data, not actuation;
//   - any method call or field selection whose receiver is (a pointer to)
//     one of those types — this catches actuation smuggled through the
//     aliases, where no fan identifier appears.
//
// Intentional escapes carry a //lint:ignore fanleak <reason> directive.
var FanLeakAnalyzer = &Analyzer{
	Name: "fanleak",
	Doc:  "flags direct fan.Fan/fan.HeatSinkModel references outside the coolant seam",
	Run:  fanLeakRule.run,
}

var fanLeakRule = &seamRule{
	analyzer: "fanleak",
	pkg:      "fan",
	types:    []string{"Fan", "HeatSinkModel"},
	// The packages on the actuator side of the seam, where fan types are
	// the subject matter.
	exempt: []string{
		"internal/fan",
		"internal/coolant",
	},
	ident: "program against coolant.Actuator",
	sel:   "route through coolant.Actuator",
}
