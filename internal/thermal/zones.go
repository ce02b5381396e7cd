package thermal

import "fmt"

// Zoning partitions the TEC deployment into independently driven control
// zones — the natural generalization of the paper's single series string
// (Section 6.1: "the deployed TECs are connected electrically in series
// and driven by the same current value"). Splitting the string into a few
// zones lets the controller concentrate current where the hot spots are;
// the zoned experiment quantifies the extra savings. The paper's string is
// the one-zone zoning, which every evaluation method takes as nil.
type Zoning struct {
	numZones int
	// zoneOf maps each chip-grid cell to its zone (only meaningful for
	// TEC-covered cells).
	zoneOf []int
}

// NumZones returns the number of control zones.
func (z *Zoning) NumZones() int { return z.numZones }

// NewZoning builds a zoning from a unit→zone assignment. Every floorplan
// unit must be assigned; zones must be numbered 0..numZones-1 with every
// zone used by at least one TEC-covered cell. Cells are assigned to the
// zone of the unit covering their center.
func (m *Model) NewZoning(assign map[string]int, numZones int) (*Zoning, error) {
	if numZones <= 0 {
		return nil, fmt.Errorf("thermal: zone count %d must be positive", numZones)
	}
	fp := m.cfg.Floorplan
	for _, u := range fp.Units() {
		zone, ok := assign[u.Name]
		if !ok {
			return nil, fmt.Errorf("thermal: unit %q has no zone assignment", u.Name)
		}
		if zone < 0 || zone >= numZones {
			return nil, fmt.Errorf("thermal: unit %q assigned to zone %d outside [0, %d)", u.Name, zone, numZones)
		}
	}
	for name := range assign {
		if _, ok := fp.Unit(name); !ok {
			return nil, fmt.Errorf("thermal: zone assignment references unknown unit %q", name)
		}
	}

	chip := m.grids[planeChip]
	z := &Zoning{numZones: numZones, zoneOf: make([]int, chip.NumCells())}
	used := make([]bool, numZones)
	for i := 0; i < chip.NumCells(); i++ {
		r, c := chip.RowCol(i)
		x, y := chip.CellCenter(r, c)
		u, ok := fp.UnitAt(x, y)
		if !ok {
			return nil, fmt.Errorf("thermal: chip cell %d center outside the floorplan", i)
		}
		z.zoneOf[i] = assign[u.Name]
		if m.tecAlpha[i] != 0 {
			used[z.zoneOf[i]] = true
		}
	}
	for zone, ok := range used {
		if !ok {
			return nil, fmt.Errorf("thermal: zone %d contains no TEC modules", zone)
		}
	}
	return z, nil
}

// SpreadZoning builds a k-zone partition with no hand-crafted
// assignment: the floorplan units that own TEC-covered cell centers at
// this resolution are round-robined across the k zones, and units
// without any covered cells (caches, slivers too thin to catch a cell
// center) go to zone 0, so every zone holds at least one module. It is
// the generic way for experiments and benchmarks to get a valid k-zone
// control space; it fails when fewer than k units own covered cells.
func (m *Model) SpreadZoning(k int) (*Zoning, error) {
	chip := m.grids[planeChip]
	fp := m.cfg.Floorplan
	covered := map[string]bool{}
	for i := 0; i < chip.NumCells(); i++ {
		if m.tecAlpha[i] == 0 {
			continue
		}
		r, c := chip.RowCol(i)
		x, y := chip.CellCenter(r, c)
		if u, ok := fp.UnitAt(x, y); ok {
			covered[u.Name] = true
		}
	}
	assign := map[string]int{}
	next := 0
	for _, u := range fp.Units() {
		if !covered[u.Name] {
			assign[u.Name] = 0
			continue
		}
		assign[u.Name] = next % k
		next++
	}
	if next < k {
		return nil, fmt.Errorf("thermal: only %d units own TEC-covered cells, cannot build %d zones", next, k)
	}
	return m.NewZoning(assign, k)
}
