package backend

import (
	"fmt"

	"oftec/internal/coolant"
	"oftec/internal/thermal"
)

// Known reports whether name is a registered backend. CLIs use it to
// reject a typo'd -backend flag up front, with Names() in the message,
// instead of surfacing the failure deep in model setup.
func Known(name string) bool {
	if name == "" {
		return true // empty selects "full"
	}
	registry.RLock()
	defer registry.RUnlock()
	_, ok := registry.factories[name]
	return ok
}

// reactuated wraps a factory so it rebuilds the model under the named
// coolant variant before delegating. A model already carrying the exact
// spec is used as-is (the -coolant flag path pre-sets the config; the
// -backend liquid path arrives with the default air config).
func reactuated(variant string, f Factory) Factory {
	return func(m *thermal.Model) (Plant, error) {
		spec, err := coolant.SpecByName(variant)
		if err != nil {
			return nil, err
		}
		lm, err := m.WithCoolant(spec)
		if err != nil {
			return nil, err
		}
		return f(lm)
	}
}

// reactuating lists the backends that rebuild their model under a fixed
// coolant variant, whatever coolant the configuration carries.
var reactuating = [...]struct{ backend, coolant string }{
	{"liquid", "liquid"},
	{"package", "liquid-package"},
}

// CheckCoolant refuses a backend that re-actuates its model under a fixed
// coolant paired with a different, explicitly named coolant: the backend
// would answer for its own coolant, not the one asked for. An empty
// coolant name asks for none and is always accepted.
func CheckCoolant(backendName, coolantName string) error {
	for _, r := range reactuating {
		if r.backend == backendName && coolantName != "" && coolantName != r.coolant {
			return fmt.Errorf("backend %q always runs coolant %q, which contradicts coolant %q", backendName, r.coolant, coolantName)
		}
	}
	return nil
}

func init() {
	// The liquid-loop and multi-chip-package variants of the full
	// backend: same floorplan and calibration, re-actuated through the
	// coolant seam. Registered here (not in the coolant package) so the
	// registry stays the single place backend names come from.
	for _, r := range reactuating {
		name := r.backend
		Register(name, reactuated(r.coolant, func(m *thermal.Model) (Plant, error) {
			return NewFull(m).Renamed(name), nil
		}))
	}
}
