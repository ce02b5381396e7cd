package lint

// BackendLeakAnalyzer guards the evaluation seam introduced with
// internal/backend: the optimizer (internal/core), the DTM controllers
// (internal/controller), and the experiment harness (internal/experiments)
// must program against backend.Evaluator and its capability interfaces,
// never against the concrete *thermal.Model. A direct model reference in
// those packages bypasses the shared evaluation cache, the ROM fast path,
// and the authoritative-finish certification, and silently re-couples the
// layers the backend split decoupled.
//
// The analyzer reports, inside the scoped packages only:
//
//   - any identifier that resolves to the Model type of a package whose
//     import path ends in "internal/thermal" (declarations, conversions,
//     type assertions, composite literals, thermal.NewModel results bound
//     through explicit types);
//   - any method call or field selection whose receiver is (a pointer to)
//     that Model type — this catches values smuggled in through
//     backend.ModelOf or interface assertions, where no "Model"
//     identifier appears.
//
// Other thermal package types (Result, Config, Zoning, Transient) remain
// free to cross the seam: they are data, not the solver. Intentional
// escapes — model-only reporting with no backend equivalent — carry a
// //lint:ignore backendleak <reason> directive.
var BackendLeakAnalyzer = &Analyzer{
	Name: "backendleak",
	Doc:  "flags direct *thermal.Model references in the backend-decoupled packages",
	Run:  backendLeakRule.run,
}

var backendLeakRule = &seamRule{
	analyzer: "backendleak",
	pkg:      "thermal",
	types:    []string{"Model"},
	// The packages that must stay on the backend side of the seam.
	scoped: []string{
		"internal/core",
		"internal/controller",
		"internal/experiments",
	},
	ident: "program against backend.Evaluator",
	sel:   "route through a backend capability interface",
}
