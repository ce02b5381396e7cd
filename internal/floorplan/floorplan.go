// Package floorplan represents chip floorplans as sets of named, axis-aligned
// rectangular functional units, and ships the Alpha 21264 (EV6) floorplan
// used by the paper's experiments (taken from the public HotSpot
// distribution geometry).
//
// Coordinates are in meters with the origin at the lower-left corner of the
// die. Rectangles are half-open in spirit: two units that share an edge do
// not overlap.
package floorplan

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-aligned rectangle: [X, X+W) × [Y, Y+H), in meters.
type Rect struct {
	X, Y, W, H float64
}

// Area returns the rectangle area in m².
func (r Rect) Area() float64 { return r.W * r.H }

// Contains reports whether point (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Overlap returns the area of intersection between r and s in m².
func (r Rect) Overlap(s Rect) float64 {
	w := math.Min(r.X+r.W, s.X+s.W) - math.Max(r.X, s.X)
	h := math.Min(r.Y+r.H, s.Y+s.H) - math.Max(r.Y, s.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Center returns the rectangle's center point.
func (r Rect) Center() (x, y float64) { return r.X + r.W/2, r.Y + r.H/2 }

// Unit is a named functional unit of a floorplan.
type Unit struct {
	Name string
	Rect Rect
}

// Floorplan is a collection of non-overlapping functional units covering a
// die of size Width × Height meters.
type Floorplan struct {
	Width, Height float64
	units         []Unit
	byName        map[string]int
}

// New creates a floorplan with the given die dimensions.
func New(width, height float64) (*Floorplan, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("floorplan: die dimensions %g×%g must be positive", width, height)
	}
	return &Floorplan{Width: width, Height: height, byName: make(map[string]int)}, nil
}

// AddUnit appends a functional unit. Unit names must be unique and the
// rectangle must lie within the die outline.
func (f *Floorplan) AddUnit(name string, r Rect) error {
	if name == "" {
		return fmt.Errorf("floorplan: unit name must be non-empty")
	}
	if _, dup := f.byName[name]; dup {
		return fmt.Errorf("floorplan: duplicate unit name %q", name)
	}
	if r.W <= 0 || r.H <= 0 {
		return fmt.Errorf("floorplan: unit %q has non-positive size %g×%g", name, r.W, r.H)
	}
	const slack = 1e-9
	if r.X < -slack || r.Y < -slack || r.X+r.W > f.Width+slack || r.Y+r.H > f.Height+slack {
		return fmt.Errorf("floorplan: unit %q (%+v) extends outside the %g×%g die", name, r, f.Width, f.Height)
	}
	f.byName[name] = len(f.units)
	f.units = append(f.units, Unit{Name: name, Rect: r})
	return nil
}

// Units returns the functional units in insertion order. The returned slice
// must not be modified.
func (f *Floorplan) Units() []Unit { return f.units }

// NumUnits returns the number of functional units.
func (f *Floorplan) NumUnits() int { return len(f.units) }

// Unit returns the unit with the given name.
func (f *Floorplan) Unit(name string) (Unit, bool) {
	i, ok := f.byName[name]
	if !ok {
		return Unit{}, false
	}
	return f.units[i], true
}

// UnitAt returns the unit containing point (x, y), or false if the point is
// uncovered.
func (f *Floorplan) UnitAt(x, y float64) (Unit, bool) {
	for _, u := range f.units {
		if u.Rect.Contains(x, y) {
			return u, true
		}
	}
	return Unit{}, false
}

// CoverageRatio returns the fraction of the die area covered by units.
func (f *Floorplan) CoverageRatio() float64 {
	var a float64
	for _, u := range f.units {
		a += u.Rect.Area()
	}
	return a / (f.Width * f.Height)
}

// Validate checks that every dimension is finite, that no two units
// overlap, and that coverage is complete to within tol (fraction of die
// area). The finiteness check comes first: the overlap and coverage
// comparisons are all false on NaN.
func (f *Floorplan) Validate(tol float64) error {
	if !finite(f.Width, f.Height) {
		return fmt.Errorf("floorplan: die dimensions %g×%g must be finite", f.Width, f.Height)
	}
	for _, u := range f.units {
		if r := u.Rect; !finite(r.X, r.Y, r.W, r.H) {
			return fmt.Errorf("floorplan: unit %q rectangle %+v must be finite", u.Name, r)
		}
	}
	for i := 0; i < len(f.units); i++ {
		for j := i + 1; j < len(f.units); j++ {
			if ov := f.units[i].Rect.Overlap(f.units[j].Rect); ov > tol*f.Width*f.Height {
				return fmt.Errorf("floorplan: units %q and %q overlap by %g m²", f.units[i].Name, f.units[j].Name, ov)
			}
		}
	}
	if c := f.CoverageRatio(); math.Abs(c-1) > tol {
		return fmt.Errorf("floorplan: coverage ratio %.6f differs from 1 by more than %g", c, tol)
	}
	return nil
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary.
func (f *Floorplan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "floorplan %gmm×%gmm, %d units:", f.Width*1e3, f.Height*1e3, len(f.units))
	for _, u := range f.units {
		fmt.Fprintf(&b, " %s", u.Name)
	}
	return b.String()
}
