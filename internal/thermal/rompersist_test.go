package thermal

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// romEvalGrid compares two ROMs over a probe grid; both must make the
// same accept/reject decisions and return DeepEqual results.
func assertROMsIdentical(t *testing.T, label string, a, b *ReducedModel) {
	t.Helper()
	if a.rank != b.rank || a.omegaFloor != b.omegaFloor || a.bound != b.bound || a.kappa != b.kappa {
		t.Fatalf("%s: calibration differs: rank %d/%d floor %g/%g bound %g/%g kappa %g/%g",
			label, a.rank, b.rank, a.omegaFloor, b.omegaFloor, a.bound, b.bound, a.kappa, b.kappa)
	}
	if !reflect.DeepEqual(a.basis, b.basis) {
		t.Fatalf("%s: basis bits differ", label)
	}
	cfg := a.m.Config()
	for _, omega := range []float64{a.omegaFloor, (a.omegaFloor + cfg.Fan.OmegaMax) / 2, cfg.Fan.OmegaMax} {
		for _, itec := range []float64{0, 0.5 * cfg.TEC.MaxCurrent, cfg.TEC.MaxCurrent} {
			ra, oka, err := a.Evaluate(omega, itec)
			if err != nil {
				t.Fatal(err)
			}
			rb, okb, err := b.Evaluate(omega, itec)
			if err != nil {
				t.Fatal(err)
			}
			if oka != okb {
				t.Fatalf("%s: (ω=%g, I=%g): accept %v vs %v", label, omega, itec, oka, okb)
			}
			if oka && !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s: (ω=%g, I=%g): results differ bitwise", label, omega, itec)
			}
		}
	}
}

func romCacheFile(tb testing.TB, m *Model, dir string) string {
	tb.Helper()
	identity, err := romIdentity(m)
	if err != nil {
		tb.Fatal(err)
	}
	return romCachePath(dir, identity)
}

// sealROM returns an OFTECROM file: body followed by its FNV-64a
// checksum, so the file's only defects are the ones body carries.
func sealROM(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

// Offsets of the calibration scalars, the last three header fields.
const (
	romFloorOff = romHeaderLen - 24
	romBoundOff = romHeaderLen - 16
	romKappaOff = romHeaderLen - 8
)

// TestROMPersistIdentityStable pins the content address of one fixed
// model: the identity hashes the same bytes in the same order as when the
// construction constants were options, so OFTECROM files written then
// still load.
func TestROMPersistIdentityStable(t *testing.T) {
	id, err := romIdentity(benchModel(t, testConfig(), "Basicmath"))
	if err != nil {
		t.Fatal(err)
	}
	const want = 0xebfadbef87553800
	if id != want {
		t.Errorf("identity %#016x, want %#016x", id, uint64(want))
	}
}

func TestROMPersistRoundTripBitIdentical(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()

	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, dir)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("fresh build did not persist its basis: %v", err)
	}

	// A restarted replica: fresh model, same config and workload, same
	// cache dir. It must load, skipping collection, and behave
	// bit-identically to the freshly collected ROM.
	m2 := benchModel(t, cfg, "Basicmath")
	loaded, err := loadCachedROM(m2, dir)
	if err != nil {
		t.Fatalf("persisted basis did not load: %v", err)
	}
	assertROMsIdentical(t, "replica", collected, loaded)

	// NewReducedModel takes the same load path.
	viaNew, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir)
	if err != nil {
		t.Fatal(err)
	}
	assertROMsIdentical(t, "via-new", collected, viaNew)
}

func TestROMPersistCorruptByteRejectedAndFallsThrough(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the basis payload: the checksum must catch it.
	for _, pos := range []int{romHeaderLen + 11, len(raw) / 2, 9} {
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[pos] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCachedROM(benchModel(t, cfg, "Basicmath"), dir); err == nil {
			t.Fatalf("corrupt byte at %d accepted", pos)
		}
		// The constructor falls through to a full rebuild and the result
		// still matches the original.
		rebuilt, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir)
		if err != nil {
			t.Fatalf("corrupt cache broke construction: %v", err)
		}
		assertROMsIdentical(t, "rebuilt-after-corruption", collected, rebuilt)
	}

	// A truncated file is rejected too.
	if err := os.WriteFile(path, raw[:romHeaderLen-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCachedROM(benchModel(t, cfg, "Basicmath"), dir); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestROMPersistStaleVersionIgnored(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the format version and re-seal the checksum, so the ONLY
	// defect is staleness — it must be ignored on its own merits, not
	// caught as corruption.
	stale := append([]byte(nil), raw[:len(raw)-8]...)
	binary.LittleEndian.PutUint32(stale[8:], romFormatVersion+7)
	if err := os.WriteFile(path, sealROM(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadCachedROM(benchModel(t, cfg, "Basicmath"), dir)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("stale version: err = %v, want a format-version rejection", err)
	}
	if _, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir); err != nil {
		t.Fatalf("stale cache broke construction: %v", err)
	}
}

func TestROMPersistIdentityMismatchIgnored(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, dir)

	// A different workload has a different identity: its cache path is
	// empty, so the load misses and the build runs fresh.
	other := benchModel(t, cfg, "CRC32")
	if _, err := loadCachedROM(other, dir); err == nil {
		t.Fatal("foreign-identity cache load unexpectedly succeeded")
	}

	// Planting Basicmath's file under CRC32's content address must fail
	// the in-header identity check, not load a wrong basis.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(romCacheFile(t, other, dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadCachedROM(benchModel(t, cfg, "CRC32"), dir)
	if err == nil || !strings.Contains(err.Error(), "identity") {
		t.Fatalf("planted foreign basis: err = %v, want an identity rejection", err)
	}
}

// TestROMPersistBadCalibrationRejected: a checksummed file whose only
// defect is one calibration scalar must not load. An infinite bound
// would switch off Evaluate's residual check, and a fresh build never
// writes a bound below romMinBound.
func TestROMPersistBadCalibrationRejected(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), dir)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-8]

	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		off  int
		v    float64
	}{
		{"bound +Inf", romBoundOff, inf},
		{"bound NaN", romBoundOff, nan},
		{"bound below the floor", romBoundOff, romMinBound / 2},
		{"bound zero", romBoundOff, 0},
		{"bound 1e300", romBoundOff, 1e300},
		{"bound above the cap", romBoundOff, 1.5},
		{"omegaFloor +Inf", romFloorOff, inf},
		{"omegaFloor NaN", romFloorOff, nan},
		{"omegaFloor zero", romFloorOff, 0},
		{"kappa +Inf", romKappaOff, inf},
		{"kappa NaN", romKappaOff, nan},
		{"kappa negative", romKappaOff, -1},
		{"kappa zero", romKappaOff, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), body...)
			binary.LittleEndian.PutUint64(bad[tc.off:], math.Float64bits(tc.v))
			if err := os.WriteFile(path, sealROM(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := loadCachedROM(benchModel(t, cfg, "Basicmath"), dir)
			if err == nil {
				t.Fatalf("file loaded: ErrorBound() = %g, OmegaFloor() = %g", r.ErrorBound(), r.OmegaFloor())
			}
			if !strings.Contains(err.Error(), "calibration scalars") {
				t.Errorf("err = %v, want a calibration-scalar rejection", err)
			}
		})
	}

	// The untouched body, resealed, still loads: the rejections above are
	// the scalars', not the rewrite's.
	if err := os.WriteFile(path, sealROM(body), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCachedROM(benchModel(t, cfg, "Basicmath"), dir)
	if err != nil {
		t.Fatalf("resealed original did not load: %v", err)
	}
	assertROMsIdentical(t, "resealed", collected, loaded)
}

// FuzzLoadCachedROM feeds loadCachedROM arbitrary file bodies, sealed
// with their correct checksum so mutations reach past the integrity
// check. A load may fail; it must not panic, and a model it returns must
// carry finite calibration scalars, a bound in [romMinBound,
// romMaxBound], a positive κ and a basis shaped for the model.
func FuzzLoadCachedROM(f *testing.F) {
	dir := f.TempDir()
	m := benchModel(f, testConfig(), "Basicmath")
	if _, err := NewReducedModel(m, dir); err != nil {
		f.Fatal(err)
	}
	path := romCacheFile(f, m, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := raw[:len(raw)-8]
	f.Add(body)
	infBound := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(infBound[romBoundOff:], math.Float64bits(math.Inf(1)))
	f.Add(infBound)
	f.Add(body[:len(body)/2])
	hugeBound := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(hugeBound[romBoundOff:], math.Float64bits(1e300))
	f.Add(hugeBound)
	zeroKappa := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(zeroKappa[romKappaOff:], 0)
	f.Add(zeroKappa)

	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, sealROM(body), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := loadCachedROM(m, dir)
		if err != nil {
			return
		}
		for _, v := range []float64{r.omegaFloor, r.bound, r.kappa} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("loaded non-finite calibration: floor %g, bound %g, kappa %g", r.omegaFloor, r.bound, r.kappa)
			}
		}
		if r.bound < romMinBound || r.bound > romMaxBound {
			t.Fatalf("loaded bound %g outside [%g, %g]", r.bound, romMinBound, romMaxBound)
		}
		if r.kappa <= 0 {
			t.Fatalf("loaded kappa %g, want > 0", r.kappa)
		}
		if r.rank <= 0 || r.rank > romMaxRank || len(r.basis) != r.rank {
			t.Fatalf("loaded rank %d with %d basis vectors", r.rank, len(r.basis))
		}
		for k, col := range r.basis {
			if len(col) != m.n {
				t.Fatalf("basis vector %d has %d entries, model has %d nodes", k, len(col), m.n)
			}
		}
	})
}
