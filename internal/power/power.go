// Package power represents dynamic power maps: per-functional-unit power
// numbers (the output of a performance/power simulator such as PTscalar)
// and their projection onto thermal grid cells proportionally to
// unit/cell overlap area.
package power

import (
	"fmt"
	"math"
	"sort"

	"oftec/internal/floorplan"
	"oftec/internal/grid"
)

// Map assigns dynamic power in watts to floorplan units by name.
type Map map[string]float64

// Total returns the summed power of the map in watts. It sums in sorted
// name order: Go randomizes map iteration and float addition is not
// associative, so summing in map order could differ by an ulp from call
// to call.
func (m Map) Total() float64 {
	var s float64
	for _, name := range m.Names() {
		s += m[name]
	}
	return s
}

// Scale returns a copy with every entry multiplied by f.
func (m Map) Scale(f float64) Map {
	out := make(Map, len(m))
	for k, v := range m {
		out[k] = v * f
	}
	return out
}

// Clone returns a deep copy of the map.
func (m Map) Clone() Map {
	out := make(Map, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Names returns the unit names in sorted order.
func (m Map) Names() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Validate checks that the map references only units present in the
// floorplan, covers every unit, and contains no negative powers.
func (m Map) Validate(f *floorplan.Floorplan) error {
	for name, p := range m {
		if _, ok := f.Unit(name); !ok {
			return fmt.Errorf("power: map references unknown unit %q", name)
		}
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("power: unit %q has invalid power %g", name, p)
		}
	}
	for _, u := range f.Units() {
		if _, ok := m[u.Name]; !ok {
			return fmt.Errorf("power: map is missing unit %q", u.Name)
		}
	}
	return nil
}

// Density returns the power density of the named unit in W/m², or 0 if the
// unit is unknown.
func (m Map) Density(f *floorplan.Floorplan, name string) float64 {
	u, ok := f.Unit(name)
	if !ok {
		return 0
	}
	return m[name] / u.Rect.Area()
}

// MaxDensity returns the peak unit power density in W/m² and its unit name.
func (m Map) MaxDensity(f *floorplan.Floorplan) (string, float64) {
	var bestName string
	var best float64
	for _, u := range f.Units() {
		d := m[u.Name] / u.Rect.Area()
		if d > best {
			best, bestName = d, u.Name
		}
	}
	return bestName, best
}

// ToCells distributes the per-unit powers onto the cells of the chip-layer
// grid, proportionally to overlap area (uniform density within a unit).
// The returned slice has one entry per grid cell, in watts. Power from map
// entries is conserved: the sum of the cell powers equals Total() as long
// as every unit lies within the grid outline.
func (m Map) ToCells(f *floorplan.Floorplan, g *grid.Grid) ([]float64, error) {
	if err := m.Validate(f); err != nil {
		return nil, err
	}
	cells := make([]float64, g.NumCells())
	for _, u := range f.Units() {
		p := m[u.Name]
		if p == 0 {
			continue
		}
		area := u.Rect.Area()
		for _, idx := range g.CellsIntersecting(u.Rect) {
			r, c := g.RowCol(idx)
			ov := g.CellRect(r, c).Overlap(u.Rect)
			cells[idx] += p * ov / area
		}
	}
	return cells, nil
}
