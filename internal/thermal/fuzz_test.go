package thermal

import (
	"bytes"
	"testing"

	"oftec/internal/coolant"
)

// FuzzLoadConfig feeds arbitrary bytes to LoadConfig, the decoder behind
// `oftec -config`, which reads the coolant spec and the floorplan too.
// Every input must either fail to load, or load a configuration that
// passes Validate and whose SaveConfig bytes reload to identical
// SaveConfig bytes. It is seeded with the default configuration under
// every coolant. scripts/check.sh runs it as a 10 s smoke:
//
//	go test -run '^$' -fuzz '^FuzzLoadConfig$' -fuzztime 10s -fuzzminimizetime 1s ./internal/thermal
func FuzzLoadConfig(f *testing.F) {
	for _, name := range coolant.Names() {
		cfg := DefaultConfig()
		spec, err := coolant.SpecByName(name)
		if err != nil {
			f.Fatal(err)
		}
		cfg.Coolant = spec
		var buf bytes.Buffer
		if err := SaveConfig(&buf, cfg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("loaded config fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := SaveConfig(&first, cfg); err != nil {
			t.Fatalf("loaded config does not save: %v", err)
		}
		again, err := LoadConfig(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved config does not reload: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := SaveConfig(&second, again); err != nil {
			t.Fatalf("reloaded config does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save changed the bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
