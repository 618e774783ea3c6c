package engine

import (
	"container/list"
	"sync"
)

// epochLRU is the engine's one bounded map for state derived from a store
// generation — the result cache, the scan-bound cache, planner feedback,
// the plan memo and the cohort workspace are each one instance. It is a
// mutex-guarded LRU epoched by the store generation: every call carries
// the generation its caller pinned, the first access at a newer generation
// drops every entry wholesale (invalidate-on-advance — nothing is swept or
// scrubbed), and a call at a superseded generation sees nothing, stores
// nothing and removes nothing, so a straggler from a query that raced an
// append can never poison the new generation. This is the one place the
// no-stale-answers rule is implemented.
//
// Values are stored as given and never cloned: a caller that hands out
// mutable values (bitsets) clones outside the lock, so copying a large
// cohort never serializes other goroutines on mu.
type epochLRU[K comparable, V any] struct {
	mu           sync.Mutex
	max          int
	gen          uint64
	ll           *list.List // front = most recently used
	byKey        map[K]*list.Element
	hits, misses uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newEpochLRU[K comparable, V any](max int) *epochLRU[K, V] {
	return &epochLRU[K, V]{max: max, ll: list.New(), byKey: make(map[K]*list.Element)}
}

// syncLocked moves the cache to gen, dropping everything when gen is
// newer; false when gen is superseded. The caller holds c.mu.
func (c *epochLRU[K, V]) syncLocked(gen uint64) bool {
	if gen < c.gen {
		return false
	}
	if gen > c.gen {
		c.ll.Init()
		clear(c.byKey)
		c.gen = gen
	}
	return true
}

// get returns the value stored under key at gen and marks it most
// recently used.
func (c *epochLRU[K, V]) get(gen uint64, key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.syncLocked(gen) {
		if el, ok := c.byKey[key]; ok {
			c.hits++
			c.ll.MoveToFront(el)
			return el.Value.(*lruEntry[K, V]).val, true
		}
	}
	c.misses++
	var zero V
	return zero, false
}

// put stores v under key at gen as the most recently used entry, evicting
// the least recently used beyond capacity; reports whether it stored.
func (c *epochLRU[K, V]) put(gen uint64, key K, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.syncLocked(gen) {
		return false
	}
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = v
		return true
	}
	c.byKey[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: v})
	for c.ll.Len() > c.max {
		delete(c.byKey, c.ll.Remove(c.ll.Back()).(*lruEntry[K, V]).key)
	}
	return true
}

// remove deletes key at gen; reports whether it was there.
func (c *epochLRU[K, V]) remove(gen uint64, key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.syncLocked(gen) {
		return false
	}
	el, ok := c.byKey[key]
	if ok {
		c.ll.Remove(el)
		delete(c.byKey, key)
	}
	return ok
}

// values returns every value live at gen, most recently used first,
// without touching recency.
func (c *epochLRU[K, V]) values(gen uint64) []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.syncLocked(gen) {
		return nil
	}
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K, V]).val)
	}
	return out
}

// reset drops every entry and zeroes the hit and miss counters. The
// generation stays: a caller still on a superseded one remains stale.
func (c *epochLRU[K, V]) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.byKey)
	c.hits, c.misses = 0, 0
}

// stats reports the lifetime hits and misses and the entries live at gen.
func (c *epochLRU[K, V]) stats(gen uint64) CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Hits: c.hits, Misses: c.misses}
	if c.syncLocked(gen) {
		st.Entries = c.ll.Len()
	}
	return st
}

// CacheStats reports plan-cache effectiveness.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}
