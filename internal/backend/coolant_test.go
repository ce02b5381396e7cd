package backend

import (
	"context"
	"testing"

	"oftec/internal/coolant"
)

// TestCoolantBackendsRegistered pins the registry surface the CLIs and the
// serving layer rely on: the liquid-loop and multi-chip-package variants
// are reachable by name, report that name, and Known rejects typos.
func TestCoolantBackendsRegistered(t *testing.T) {
	for _, name := range []string{"liquid", "package"} {
		if !Known(name) {
			t.Errorf("backend %q not known", name)
		}
	}
	if !Known("") {
		t.Error("empty backend name must select the default")
	}
	if Known("water") {
		t.Error("unregistered backend name accepted")
	}

	p := testPlant(t, "liquid", "CRC32")
	if p.Name() != "liquid" {
		t.Errorf("Name() = %q, want liquid", p.Name())
	}
	m, ok := ModelOf(p)
	if !ok {
		t.Fatal("liquid backend exposes no model")
	}
	if got, want := m.Actuator().Name(), "liquid"; got != want {
		t.Errorf("actuator %q, want %q", got, want)
	}
	if got, want := m.UMax(), coolant.PaperLoop().MaxSpeed; got != want {
		t.Errorf("UMax %g, want the pump ceiling %g", got, want)
	}
	res, err := p.Evaluate(context.Background(), Scalar(200, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := coolant.PaperLoop().Power(200); res.PFan != want {
		t.Errorf("drive power %g, want pump affinity %g", res.PFan, want)
	}
}

// TestCheckCoolantRefusesContradiction: the liquid and package backends
// re-actuate under their own coolant, so naming a different coolant next
// to them, air included, is refused; their own coolant, an empty name,
// and every coolant on a backend that keeps the configuration's own are
// accepted.
func TestCheckCoolantRefusesContradiction(t *testing.T) {
	own := map[string]string{"liquid": "liquid", "package": "liquid-package"}
	for _, b := range Names() {
		for _, c := range append(coolant.Names(), "") {
			err := CheckCoolant(b, c)
			if want := own[b] != "" && c != "" && c != own[b]; (err != nil) != want {
				t.Errorf("backend %q, coolant %q: err = %v, want refused %t", b, c, err, want)
			}
		}
	}
}

// TestPackageBackendSharesColdPlate: the package variant couples chips
// through a shared cold plate — per-chip conductance and drive power are
// the 1/N share of the liquid loop's.
func TestPackageBackendSharesColdPlate(t *testing.T) {
	p := testPlant(t, "package", "CRC32")
	if p.Name() != "package" {
		t.Errorf("Name() = %q, want package", p.Name())
	}
	m, ok := ModelOf(p)
	if !ok {
		t.Fatal("package backend exposes no model")
	}
	mcfg := m.Config()
	n := mcfg.PackageChips()
	if n != coolant.DefaultPackageChips {
		t.Fatalf("PackageChips = %d, want %d", n, coolant.DefaultPackageChips)
	}
	loop := coolant.PaperLoop()
	act := m.Actuator()
	u := 200.0
	if got, want := act.Conductance(u), loop.Conductance(u)/float64(n); got != want {
		t.Errorf("per-chip conductance %g, want the 1/%d share %g", got, n, want)
	}
	if got, want := act.Power(u), loop.Power(u)/float64(n); got != want {
		t.Errorf("per-chip drive power %g, want the 1/%d share %g", got, n, want)
	}
}
