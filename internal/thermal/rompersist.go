package thermal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
)

// This file persists a constructed ROM basis so a restarted process
// skips the expensive part of NewReducedModel: the snapshot-collection
// and calibration sweeps (~40 full solves). Only the irreproducible
// state is serialized — the orthonormal basis vectors and the
// calibration scalars (ω floor, bound, κ). Everything else (affine
// pieces, projected operators) is a deterministic function of basis +
// model and is recomputed on load, so a loaded replica is bit-identical
// to the freshly collected ROM it was saved from.
//
// Format (little-endian):
//
//	magic     "OFTECROM"           8 bytes
//	version   uint32               bumped on any layout change; stale
//	                               versions are ignored, never migrated
//	identity  uint64               FNV-64a over config JSON, dynamic
//	                               power bits, ROM options, cache key
//	n, rank   uint32 ×2
//	omegaFloor, bound, kappa       float64 bits ×3
//	basis     rank·n float64 bits
//	checksum  uint64               FNV-64a over all preceding bytes
//
// Files are content-addressed: the identity hash is both in the name and
// in the header, so distinct chips/options/workloads never collide and a
// config change simply misses the cache. Invalidation rules, enforced in
// that order on load: wrong magic/version → ignore; checksum mismatch →
// reject (corruption); identity mismatch → ignore (stale content);
// bound re-validation failure → reject. Every failure path returns an
// error and the caller rebuilds from scratch — a cache can produce a
// cold start, never a wrong model.

const (
	romMagic         = "OFTECROM"
	romFormatVersion = 1
	// romHeaderLen is everything before the basis payload.
	romHeaderLen = 8 + 4 + 8 + 4 + 4 + 3*8
)

// romIdentity content-addresses a (model, options) pair: the full config
// (embedded floorplan included), the dynamic power vector the snapshots
// were solved under, every option that shapes the basis or calibration,
// and the caller's extra key.
func romIdentity(m *Model, opts ROMOptions) (uint64, error) {
	cfgJSON, err := json.Marshal(m.Config())
	if err != nil {
		return 0, fmt.Errorf("thermal: hashing config: %w", err)
	}
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(cfgJSON)
	// The coolant spec is already part of the config JSON; folding the
	// resolved actuator name in as well guards against distinct actuators
	// whose specs happen to serialize identically (e.g. a future default
	// change): a basis snapshotted under one g(u) law must never answer
	// for another.
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write([]byte(m.act.Name()))
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		//lint:ignore errdrop fnv's Write is documented to never fail
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	for _, p := range m.dyn {
		wf(p)
	}
	w64(uint64(opts.MaxRank))
	w64(uint64(opts.SnapshotOmegas))
	w64(uint64(opts.SnapshotCurrents))
	w64(uint64(opts.ValidateOmegas))
	w64(uint64(opts.ValidateCurrents))
	wf(opts.Safety)
	wf(opts.MinBound)
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write([]byte(opts.CacheKey))
	return h.Sum64(), nil
}

// romCachePath names the content-addressed basis file.
func romCachePath(dir string, identity uint64) string {
	return filepath.Join(dir, fmt.Sprintf("rom-%016x.basis", identity))
}

// saveCachedROM serializes r's basis and calibration into opts.CacheDir,
// creating the directory as needed. The write goes through a temp file +
// rename so a crashed writer never leaves a torn file under the final
// name.
func saveCachedROM(r *ReducedModel, opts ROMOptions) error {
	identity, err := romIdentity(r.m, opts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
		return err
	}
	n := r.m.n
	payload := make([]byte, romHeaderLen+8*r.rank*n+8)
	copy(payload, romMagic)
	off := 8
	binary.LittleEndian.PutUint32(payload[off:], romFormatVersion)
	off += 4
	binary.LittleEndian.PutUint64(payload[off:], identity)
	off += 8
	binary.LittleEndian.PutUint32(payload[off:], uint32(n))
	off += 4
	binary.LittleEndian.PutUint32(payload[off:], uint32(r.rank))
	off += 4
	for _, v := range []float64{r.omegaFloor, r.bound, r.kappa} {
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
		off += 8
	}
	for _, col := range r.basis {
		for _, v := range col {
			binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
			off += 8
		}
	}
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(payload[:off])
	binary.LittleEndian.PutUint64(payload[off:], h.Sum64())
	off += 8

	tmp, err := os.CreateTemp(opts.CacheDir, "rom-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(payload[:off]); err != nil {
		//lint:ignore errdrop best-effort cleanup; the write error is what matters
		tmp.Close()
		//lint:ignore errdrop best-effort cleanup; the write error is what matters
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		//lint:ignore errdrop best-effort cleanup; the close error is what matters
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), romCachePath(opts.CacheDir, identity))
}

// loadCachedROM reconstructs a ReducedModel from the persisted basis,
// applying the invalidation rules in the file-format comment. On success
// the replica is bit-identical to the ROM that was saved: the basis bits
// come from the file and every derived piece is recomputed by the same
// deterministic projection a fresh build runs.
func loadCachedROM(m *Model, opts ROMOptions) (*ReducedModel, error) {
	identity, err := romIdentity(m, opts)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(romCachePath(opts.CacheDir, identity))
	if err != nil {
		return nil, err
	}
	if len(raw) < romHeaderLen+8 {
		return nil, fmt.Errorf("thermal: ROM cache file truncated (%d bytes)", len(raw))
	}
	if string(raw[:8]) != romMagic {
		return nil, fmt.Errorf("thermal: ROM cache file has wrong magic")
	}
	off := 8
	if v := binary.LittleEndian.Uint32(raw[off:]); v != romFormatVersion {
		return nil, fmt.Errorf("thermal: ROM cache format version %d, want %d", v, romFormatVersion)
	}
	off += 4
	// Integrity before anything content-derived: a flipped bit anywhere in
	// the file (header included) must read as corruption, not as a
	// different-but-plausible model.
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(raw[:len(raw)-8])
	if got := binary.LittleEndian.Uint64(raw[len(raw)-8:]); got != h.Sum64() {
		return nil, fmt.Errorf("thermal: ROM cache checksum mismatch (corrupt file)")
	}
	if id := binary.LittleEndian.Uint64(raw[off:]); id != identity {
		return nil, fmt.Errorf("thermal: ROM cache identity %016x, want %016x", id, identity)
	}
	off += 8
	n := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4
	rank := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4
	if n != m.n {
		return nil, fmt.Errorf("thermal: ROM cache has %d nodes, model has %d", n, m.n)
	}
	if rank <= 0 || rank > opts.MaxRank {
		return nil, fmt.Errorf("thermal: ROM cache rank %d outside (0, %d]", rank, opts.MaxRank)
	}
	if want := romHeaderLen + 8*rank*n + 8; len(raw) != want {
		return nil, fmt.Errorf("thermal: ROM cache is %d bytes, want %d", len(raw), want)
	}

	r, err := newReducedShell(m)
	if err != nil {
		return nil, err
	}
	r.omegaFloor = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
	off += 8
	r.bound = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
	off += 8
	r.kappa = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
	off += 8
	if !(r.omegaFloor > 0) || !(r.bound > 0) || r.kappa < 0 ||
		math.IsNaN(r.kappa) || math.IsInf(r.omegaFloor, 0) {
		return nil, fmt.Errorf("thermal: ROM cache calibration scalars out of range")
	}
	r.rank = rank
	r.basis = make([][]float64, rank)
	for k := range r.basis {
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
			off += 8
		}
		r.basis[k] = col
	}
	r.project()
	r.initScratch()

	if err := r.revalidate(); err != nil {
		return nil, err
	}
	return r, nil
}

// revalidate probes the loaded ROM against a few fresh full solves —
// the cheap stand-in for the full calibration sweep. A probe the ROM
// accepts must land inside the advertised bound; if every probe is
// rejected or out of bound, the persisted calibration no longer holds
// for this model and the caller rebuilds.
func (r *ReducedModel) revalidate() error {
	cfg := r.m.Config()
	omegaMax := r.m.act.UMax()
	iMax := cfg.TEC.MaxCurrent
	probes := []Point{
		{Omega: r.omegaFloor + 0.25*(omegaMax-r.omegaFloor), Currents: []float64{0.3 * iMax}},
		{Omega: r.omegaFloor + 0.75*(omegaMax-r.omegaFloor), Currents: []float64{0.7 * iMax}},
		{Omega: omegaMax, Currents: []float64{0}},
	}
	fulls, err := r.m.EvaluateBatch(context.Background(), nil, probes, nil)
	if err != nil {
		return err
	}
	accepted := 0
	for k, full := range fulls {
		if full.Runaway {
			continue
		}
		t, resNorm, ok := r.reducedSolve(probes[k].Omega, probes[k].Currents[0])
		if !ok || !r.m.physical(t) {
			continue
		}
		if r.kappa > 0 && r.kappa*resNorm > r.bound {
			continue // the ROM would reject this point at serve time too
		}
		var errInf float64
		nc := r.m.grids[planeChip].NumCells()
		for i := 0; i < nc; i++ {
			node := r.m.node(planeChip, i)
			if d := math.Abs(t[node] - full.T[node]); d > errInf {
				errInf = d
			}
		}
		if errInf > r.bound {
			return fmt.Errorf("thermal: persisted ROM misses its bound (%g K > %g K)", errInf, r.bound)
		}
		accepted++
	}
	if accepted == 0 {
		return fmt.Errorf("thermal: persisted ROM accepted none of the re-validation probes")
	}
	return nil
}
