package thermal

import (
	"strings"
	"testing"
)

// TestNewZoningBoundsZoneCount: every zone needs a TEC-covered cell and a
// cell takes its unit's zone, so a zone count above the floorplan's unit
// count is refused by name before anything is sized by it.
func TestNewZoningBoundsZoneCount(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	units := cfg.Floorplan.Units()
	assign := make(map[string]int, len(units))
	for i, u := range units {
		assign[u.Name] = i
	}
	_, err := m.NewZoning(assign, len(units)+1)
	if err == nil || !strings.Contains(err.Error(), "exceeds the floorplan's") {
		t.Fatalf("NewZoning with %d zones over %d units: err = %v, want the unit-count bound", len(units)+1, len(units), err)
	}
}
