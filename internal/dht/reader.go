package dht

import (
	"mhmgo/internal/hashtab"
	"mhmgo/internal/pgas"
)

// CachedReader implements the "Global Read-Only" phase: a per-rank software
// cache in front of Get. Its remote reads need the map frozen (Map.Freeze),
// so the cache can never go stale and needs no consistency protocol, as in
// the paper.
type CachedReader[K comparable, V any] struct {
	m *Map[K, V]
	r *pgas.Rank
	// cache holds remote entries and remote absences ("negative" entries) in
	// one table probed with the map's own key hash. Entries are never
	// evicted; each kind has its own maxEntries budget, so a flood of one
	// kind cannot change which lookups of the other kind hit.
	cache      hashtab.Table[K, cached[V]]
	positives  int
	negatives  int
	maxEntries int
	enabled    bool
}

// cached is one software-cache entry: what the owner answered for a key.
type cached[V any] struct {
	val   V
	found bool
}

// NewCachedReader creates a software cache of at most maxEntries entries and
// maxEntries known absences in front of the map for the calling rank.
// enabled=false bypasses the cache (used for the read-localization ablation).
func (m *Map[K, V]) NewCachedReader(r *pgas.Rank, maxEntries int, enabled bool) *CachedReader[K, V] {
	if maxEntries <= 0 {
		maxEntries = 1 << 16
	}
	return &CachedReader[K, V]{
		m:          m,
		r:          r,
		maxEntries: maxEntries,
		enabled:    enabled,
	}
}

// Get reads the entry for key, serving it from the software cache when
// possible. A read of the calling rank's own partition is charged as a
// cache hit (Rank.ChargeCacheHit) and a remote read the cache cannot serve
// as a miss (Rank.ChargeCacheMiss), so the rank's CacheHits and CacheMisses
// counters are the reader's hit and miss counts.
func (c *CachedReader[K, V]) Get(key K) (V, bool) {
	h := c.m.hash(key)
	owner := c.m.ownerOf(h)
	if owner == c.r.ID() {
		c.r.ChargeCacheHit()
		return c.m.read(c.r, owner, h, key)
	}
	if c.enabled {
		if e, ok := c.cache.Get(h, key); ok {
			c.r.ChargeCacheHit()
			return e.val, e.found
		}
	}
	c.r.ChargeCacheMiss(owner, c.m.entryBytes)
	v, ok := c.m.read(c.r, owner, h, key)
	if c.enabled {
		budget := &c.negatives
		if ok {
			budget = &c.positives
		}
		if *budget < c.maxEntries {
			*budget++
			c.cache.Put(h, key, cached[V]{val: v, found: ok})
		}
	}
	return v, ok
}
