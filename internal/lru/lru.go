// Package lru provides a small, concurrency-safe, bounded LRU cache
// with hit/miss/eviction accounting. It backs every long-lived cache in
// the repository — the scheduler's cross-instance result cache and the
// road-network metric's snap and node-pair caches — so server processes
// hold their working sets without growing without bound.
package lru

import "sync"

// Stats is a snapshot of a cache's activity counters.
type Stats struct {
	Hits      uint64 // Get calls served from the cache
	Misses    uint64 // Get calls that found nothing
	Evictions uint64 // entries displaced by Put on a full cache
}

// HitRate returns the fraction of lookups served from the cache
// (0 when no lookups happened).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cache slot, threaded onto an intrusive recency list.
type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// Cache is a bounded least-recently-used cache. The zero value is not
// usable; build one with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*entry[K, V]
	// head is most recently used, tail least; nil when empty.
	head, tail *entry[K, V]
	stats      Stats
}

// New returns a cache bounded to capacity entries. Capacities < 1 are
// clamped to 1: a zero-capacity LRU is indistinguishable from a bug at
// the call site, and callers that want "no cache" should not build one.
// New allocates no map: the first Put makes it, with no size hint, and
// it grows with the entries. Million-entry capacities are working-set
// ceilings, not expected sizes, so an unused cache, or an unused shard
// of a Sharded one, costs a few words rather than empty buckets.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.moveToFront(e)
	return e.value, true
}

// Put inserts or refreshes key's value, evicting the least recently
// used entry when the cache is at capacity.
func (c *Cache[K, V]) Put(key K, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.value = value
		c.moveToFront(e)
		return
	}
	if c.entries == nil {
		c.entries = make(map[K]*entry[K, V])
	}
	if len(c.entries) >= c.cap {
		c.evictLocked()
	}
	e := &entry[K, V]{key: key, value: value}
	c.entries[key] = e
	c.pushFront(e)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Cap returns the cache's capacity.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Stats returns a snapshot of the activity counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache[K, V]) evictLocked() {
	t := c.tail
	if t == nil {
		return
	}
	c.unlink(t)
	delete(c.entries, t.key)
	c.stats.Evictions++
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
