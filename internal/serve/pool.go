package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/thermal"
)

// pool is the model pool: one entry per distinct chip configuration,
// keyed by the canonical (benchmark, backend, config) rendering. Each
// entry builds its thermal model exactly once, no matter how
// many requests race on a cold chip: the winners of the map insertion all
// funnel through one sync.Once, so the expensive assembly (RC network +
// ROM basis) is singleflighted and every request shares the resulting
// core.System. All pooled systems evaluate through the server's one
// shared evalcache.
//
// Rendering the canonical key costs a full configuration as JSON, so the
// pool also indexes every spec that resolved to an entry by its value:
// a spec seen before finds its entry with one map read. Resolution is a
// deterministic function of the spec, so the index only ever returns the
// entry the canonical key would.
type pool struct {
	mu      sync.Mutex
	entries map[string]*poolEntry   // canonical chip → entry
	specs   map[ChipSpec]*poolEntry // resolved spelling → its entry
	builds  atomic.Int64
	max     int
}

// spellingsPerModel bounds the spec index at this many spellings per
// model the pool admits. Past the bound it clears wholesale, like the
// thermal result memo: every spelling re-resolves once through the
// canonical key.
const spellingsPerModel = 8

// zoningsPerChip bounds the zonings a pool entry memoizes. Past the
// bound the memo clears wholesale, like the spec index: each spelling
// then resolves once more to a fresh zoning.
const zoningsPerChip = 16

// poolEntry is one resident chip: its spec, the once-guarded build, and
// the memoized zonings resolved against it.
type poolEntry struct {
	spec    ChipSpec
	cfg     thermal.Config
	once    sync.Once
	sys     *core.System
	err     error
	zoneMu  sync.Mutex
	zonings map[string]*thermal.Zoning
}

func newPool(maxModels int) *pool {
	if maxModels <= 0 {
		maxModels = 64
	}
	return &pool{entries: map[string]*poolEntry{}, specs: map[ChipSpec]*poolEntry{}, max: maxModels}
}

// canonChip renders the spec's full identity: workload, backend, and the
// complete validated thermal configuration as its canonical JSON. Two
// specs spelled differently but materializing the same configuration
// (say, res 8 explicit vs. defaulted) share one entry.
func canonChip(spec ChipSpec, cfg thermal.Config, benchName, backendName string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "bench=%s|backend=%s|cfg=", benchName, backendName)
	if err := thermal.SaveConfig(&b, cfg); err != nil {
		return "", err
	}
	return b.String(), nil
}

// lookup returns the pool entry for the spec, creating a cold (unbuilt)
// entry on first sight. It never builds the model — that happens in
// entry.system, outside the pool lock. A spec seen before is one map
// read; a new one resolves through resolve.
//
//oftec:hotpath
func (p *pool) lookup(spec ChipSpec) (*poolEntry, error) {
	p.mu.Lock()
	e, ok := p.specs[spec]
	p.mu.Unlock()
	if ok {
		return e, nil
	}
	return p.resolve(spec)
}

// resolve materializes a spec not yet in the index, finds or creates its
// entry under the canonical key, and indexes the spec. A spec that fails
// to resolve (unknown workload, invalid configuration, full pool) is not
// indexed, so it fails the same way on every repeat.
//
//oftec:allocok first sight of a spelling: materializes and canonicalizes its configuration, once per distinct spec
func (p *pool) resolve(spec ChipSpec) (*poolEntry, error) {
	bench, err := spec.bench()
	if err != nil {
		return nil, err
	}
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	backendName := spec.Backend
	if backendName == "" {
		backendName = "full"
	}
	canon, err := canonChip(spec, cfg, bench.Name, backendName)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[canon]
	if !ok {
		if len(p.entries) >= p.max {
			return nil, errPoolFull
		}
		e = &poolEntry{spec: spec, cfg: cfg, zonings: map[string]*thermal.Zoning{}}
		p.entries[canon] = e
	}
	if len(p.specs) >= spellingsPerModel*p.max {
		clear(p.specs)
	}
	p.specs[spec] = e
	return e, nil
}

// size reports the number of resident entries (built or building).
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

var errPoolFull = fmt.Errorf("serve: model pool full")

// system builds the entry's shared System on first use (singleflighted
// through the entry's Once) and returns it thereafter.
func (e *poolEntry) system(p *pool, cache *evalcache.Cache) (*core.System, error) {
	e.once.Do(func() {
		bench, err := e.spec.bench()
		if err != nil {
			e.err = err
			return
		}
		pm, err := bench.PowerMap(e.cfg.Floorplan)
		if err != nil {
			e.err = err
			return
		}
		name := e.spec.Backend
		plant, err := backend.New(name, e.cfg, pm)
		if err != nil {
			e.err = err
			return
		}
		p.builds.Add(1)
		e.sys = core.NewSystemShared(plant, cache)
	})
	return e.sys, e.err
}

// zoning resolves a ZoneSpec against this chip's floorplan, memoized by
// the spec's canonical rendering so repeated zoned requests reuse one
// *thermal.Zoning pointer — which is what keys the System's zoned-binding
// memoization and therefore the cache's zoned key space.
func (e *poolEntry) zoning(sys *core.System, zs *ZoneSpec) (*thermal.Zoning, error) {
	if zs == nil {
		return nil, nil
	}
	if err := zs.check(); err != nil {
		return nil, err
	}
	key := zs.canon()
	e.zoneMu.Lock()
	defer e.zoneMu.Unlock()
	if z, ok := e.zonings[key]; ok {
		return z, nil
	}
	z, err := newZoning(sys, zs)
	if err != nil {
		return nil, err
	}
	if len(e.zonings) >= zoningsPerChip {
		clear(e.zonings)
	}
	e.zonings[key] = z
	return z, nil
}

// newZoning builds the zoning a ZoneSpec that passed check describes over
// the chip's model.
func newZoning(sys *core.System, zs *ZoneSpec) (*thermal.Zoning, error) {
	zoner, ok := sys.Backend().(backend.Zoner)
	if !ok {
		return nil, fmt.Errorf("serve: backend %q cannot evaluate zoned points", sys.Backend().Name())
	}
	switch {
	case len(zs.ZoneOf) > 0:
		assign := make(map[string]int, len(zs.ZoneOf))
		max := 0
		for name, z := range zs.ZoneOf {
			if z < 0 {
				return nil, fmt.Errorf("serve: zone_of[%q] = %d is negative", name, z)
			}
			assign[name] = z
			if z > max {
				max = z
			}
		}
		return zoner.NewZoning(assign, max+1)
	case zs.Clusters:
		assign, n := core.ClusterZones()
		return zoner.NewZoning(assign, n)
	case zs.Zones > 0:
		m, ok := backend.ModelOf(sys.Backend())
		if !ok {
			return nil, fmt.Errorf("serve: backend %q exposes no model to spread zones over", sys.Backend().Name())
		}
		return m.SpreadZoning(zs.Zones)
	default:
		return nil, fmt.Errorf("serve: zones %d must be positive", zs.Zones)
	}
}
