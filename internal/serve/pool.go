package serve

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/thermal"
)

// pool is the model pool: one entry per distinct chip configuration,
// keyed by a hash of the canonical (benchmark, backend, config) rendering
// with the full canonical string kept alongside for collision checking —
// the same discipline the evaluation cache applies to wide operating
// points. Each entry builds its thermal model exactly once, no matter how
// many requests race on a cold chip: the winners of the map insertion all
// funnel through one sync.Once, so the expensive assembly (RC network +
// ROM basis) is singleflighted and every request shares the resulting
// core.System. All pooled systems evaluate through the server's one
// shared evalcache.
type pool struct {
	mu      sync.Mutex
	entries map[uint64][]*poolEntry // hash → collision bucket
	builds  atomic.Int64
	max     int
}

// poolEntry is one resident chip: the canonical identity, the
// once-guarded build, and the memoized zonings resolved against it.
type poolEntry struct {
	canon   string
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
	return &pool{entries: map[uint64][]*poolEntry{}, max: maxModels}
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

func hashCanon(canon string) uint64 {
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write([]byte(canon))
	return h.Sum64()
}

// lookup returns the pool entry for the spec, creating a cold (unbuilt)
// entry on first sight. It never builds the model — that happens in
// entry.system, outside the pool lock.
func (p *pool) lookup(spec ChipSpec) (*poolEntry, error) {
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
	h := hashCanon(canon)

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries[h] {
		if e.canon == canon {
			return e, nil
		}
	}
	n := 0
	for _, bucket := range p.entries {
		n += len(bucket)
	}
	if n >= p.max {
		return nil, errPoolFull
	}
	e := &poolEntry{canon: canon, spec: spec, cfg: cfg, zonings: map[string]*thermal.Zoning{}}
	p.entries[h] = append(p.entries[h], e)
	return e, nil
}

// size reports the number of resident entries (built or building).
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, bucket := range p.entries {
		n += len(bucket)
	}
	return n
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
	key := zs.canon()
	e.zoneMu.Lock()
	defer e.zoneMu.Unlock()
	if z, ok := e.zonings[key]; ok {
		return z, nil
	}
	zoner, ok := sys.Backend().(backend.Zoner)
	if !ok {
		return nil, fmt.Errorf("serve: backend %q cannot evaluate zoned points", sys.Backend().Name())
	}
	assign, numZones, err := e.assignment(zs)
	if err != nil {
		return nil, err
	}
	z, err := zoner.NewZoning(assign, numZones)
	if err != nil {
		return nil, err
	}
	e.zonings[key] = z
	return z, nil
}

// assignment materializes the unit → zone map a ZoneSpec describes.
func (e *poolEntry) assignment(zs *ZoneSpec) (map[string]int, int, error) {
	switch {
	case len(zs.ZoneOf) > 0:
		assign := make(map[string]int, len(zs.ZoneOf))
		max := 0
		for name, z := range zs.ZoneOf {
			if z < 0 {
				return nil, 0, fmt.Errorf("serve: zone_of[%q] = %d is negative", name, z)
			}
			assign[name] = z
			if z > max {
				max = z
			}
		}
		return assign, max + 1, nil
	case zs.Clusters:
		assign, n := core.ClusterZones()
		return assign, n, nil
	case zs.Zones > 0:
		// Round-robin over the TEC-covered units only; units the
		// deployment leaves uncovered (the caches) ride along in zone 0,
		// since a zone without a single TEC module is unactuatable and the
		// model rejects it. Zone counts the floorplan still cannot support
		// (tiny units owning no chip cell) surface as the model's own
		// validation error.
		uncovered := make(map[string]bool, len(e.cfg.TEC.Uncovered))
		for _, name := range e.cfg.TEC.Uncovered {
			uncovered[name] = true
		}
		units := e.cfg.Floorplan.Units()
		covered := 0
		for _, u := range units {
			if !uncovered[u.Name] {
				covered++
			}
		}
		if zs.Zones > covered {
			return nil, 0, fmt.Errorf("serve: %d zones exceed the floorplan's %d TEC-covered units", zs.Zones, covered)
		}
		assign := make(map[string]int, len(units))
		i := 0
		for _, u := range units {
			if uncovered[u.Name] {
				assign[u.Name] = 0
				continue
			}
			assign[u.Name] = i % zs.Zones
			i++
		}
		return assign, zs.Zones, nil
	default:
		return nil, 0, fmt.Errorf("serve: zoning spec selects nothing (set zones, clusters, or zone_of)")
	}
}
