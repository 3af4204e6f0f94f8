package core

import (
	"container/list"
	"sync"

	"astore/internal/agg"
)

// DefaultAggCacheBytes is the per-engine budget for the segment aggregate
// cache when Options.AggCacheBytes is zero. 64 MB holds on the order of a
// hundred thousand group cells per cached (plan, segment) pair across many
// plans — partials are O(groups), not O(rows), so the default goes a long
// way.
const DefaultAggCacheBytes = 64 << 20

// aggKey identifies one cached per-segment aggregate partial: the compiled
// plan instance (dimension-side state baked into group ids makes partials
// plan-instance-specific) and the sealed segment's id, which names its
// contents — every write to a sealed segment gives it a new id.
type aggKey struct {
	plan, seg uint64
}

// memCache is the byte-accounted LRU of per-segment aggregate partials
// shared by every plan of one engine. A nil *memCache is the disabled
// state: get misses and put is a no-op, so call sites need no budget
// checks. Cumulative hit/miss/eviction counters feed db.Stats and the
// /metrics families.
type memCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[aggKey]*list.Element

	hits, misses, evictions int64
}

type memEntry struct {
	key   aggKey
	val   *agg.Partial
	bytes int64
}

func newMemCache(budget int64) *memCache {
	if budget <= 0 {
		return nil
	}
	return &memCache{budget: budget, ll: list.New(), items: make(map[aggKey]*list.Element)}
}

func (c *memCache) enabled() bool { return c != nil }

// get returns the cached value and refreshes its recency.
func (c *memCache) get(key aggKey) (*agg.Partial, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// put installs a value, evicting least-recently-used entries until the
// budget holds. Values larger than the whole budget are not installed.
// Re-installing an existing key refreshes its value and accounting (two
// executions may race to compute the same partial; both results are
// identical, so last-writer-wins is safe).
func (c *memCache) put(key aggKey, val *agg.Partial, bytes int64) {
	if c == nil || bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*memEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&memEntry{key: key, val: val, bytes: bytes})
		c.bytes += bytes
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// CacheStats is a point-in-time summary of the engine's per-segment
// aggregate partial cache (Options.AggCacheBytes).
type CacheStats struct {
	AggHits, AggMisses, AggEvictions int64
	AggBytes, AggEntries             int64
}

func (c *memCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		AggHits:      c.hits,
		AggMisses:    c.misses,
		AggEvictions: c.evictions,
		AggBytes:     c.bytes,
		AggEntries:   int64(c.ll.Len()),
	}
}

// CacheStats returns cumulative counters and the current size of the
// engine's aggregate cache.
func (e *Engine) CacheStats() CacheStats { return e.aggCache.stats() }
