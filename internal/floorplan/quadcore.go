package floorplan

// QuadCore returns a synthetic four-core floorplan, demonstrating the
// paper's Figure 5 claim that the OFTEC flow "is not limited to the
// aforementioned selections of the processor and performance/power
// simulators". Four EV6-like cores sit in the corners of a 22 mm die
// around a shared L3 cross; unit names are suffixed with the core index
// (e.g. "IntExec0".."IntExec3").
//
// The plan tiles the die exactly (Validate(1e-9) passes), so it can be
// dropped into thermal.Config in place of AlphaEV6.
func QuadCore() *Floorplan {
	const die = 22.0 // mm
	f, err := New(mm(die), mm(die))
	if err != nil {
		panic(err) // unreachable: constants are positive
	}
	add := func(name string, x, y, w, h float64) {
		if err := f.AddUnit(name, Rect{X: mm(x), Y: mm(y), W: mm(w), H: mm(h)}); err != nil {
			panic("floorplan: invalid quad-core geometry: " + err.Error())
		}
	}

	// Shared L3: a cross through the die center (2 mm arms).
	const core = 10.0                                   // each core tile is 10×10 mm
	add("L3_v", core, 0, die-2*core, die)               // vertical bar, 2 mm wide
	add("L3_h_left", 0, core, core, die-2*core)         // left horizontal arm
	add("L3_h_right", die-core, core, core, die-2*core) // right horizontal arm

	// Four core tiles in the corners; each is a compact EV6-like layout.
	corners := [][2]float64{{0, 0}, {die - core, 0}, {0, die - core}, {die - core, die - core}}
	for idx, c := range corners {
		ox, oy := c[0], c[1]
		suffix := string(rune('0' + idx))
		// Bottom band: L2 slice.
		add("L2"+suffix, ox, oy, core, 4.0)
		// Middle band: caches and memory pipeline.
		add("Icache"+suffix, ox, oy+4.0, 3.5, 2.5)
		add("Dcache"+suffix, ox+3.5, oy+4.0, 3.5, 2.5)
		add("LdStQ"+suffix, ox+7.0, oy+4.0, 3.0, 2.5)
		// Top band: execution clusters.
		add("FP"+suffix, ox, oy+6.5, 4.0, 3.5)
		add("IntReg"+suffix, ox+4.0, oy+6.5, 3.0, 3.5)
		add("IntExec"+suffix, ox+7.0, oy+6.5, 3.0, 3.5)
	}
	return f
}
