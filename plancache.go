package soifft

import (
	"container/list"
	"fmt"
	"sync"
)

// PlanKey canonically identifies a plan configuration for caching: the
// parameters that determine the transform NewPlan would build, with the
// same defaulting rules applied (default segment count, accuracy preset
// resolved to a tap count, taps shrunk for short segments). Two option
// lists that produce the same transform produce the same key.
type PlanKey struct {
	N, Segments, Mu, Nu, Taps int
}

// String renders the key in a compact, stable form ("n=4096 p=8 mu=5
// nu=4 b=72") used by the serving metrics.
func (k PlanKey) String() string {
	return fmt.Sprintf("n=%d p=%d mu=%d nu=%d b=%d", k.N, k.Segments, k.Mu, k.Nu, k.Taps)
}

// KeyOf resolves options exactly as NewPlan does and returns the
// canonical cache key, without building any tables.
func KeyOf(n int, opts ...Option) PlanKey {
	o := options{segments: 0, mu: 5, nu: 4, taps: 72}
	for _, fn := range opts {
		fn(&o)
	}
	if o.segments == 0 {
		o.segments = defaultSegments(n)
	}
	b := o.taps
	if o.useAcc {
		b = o.accuracy.preset().B
	}
	if m := nSafeM(n, o.segments); b > m && m >= 2 {
		b = m
	}
	return PlanKey{N: n, Segments: o.segments, Mu: o.mu, Nu: o.nu, Taps: b}
}

// Key returns the canonical cache key of a built plan. It equals KeyOf
// of the options the plan was built with, so a plan inserted with Add
// serves later NewPlan-shaped requests without rebuilding.
func (p *Plan) Key() PlanKey {
	prm := p.inner.Params()
	return PlanKey{N: prm.N, Segments: prm.P, Mu: prm.Mu, Nu: prm.Nu, Taps: prm.B}
}

// CacheStats is a point-in-time snapshot of a PlanCache.
type CacheStats struct {
	Size, Capacity          int
	Hits, Misses, Evictions uint64
	// PerPlan lists hit counts per resident plan, most recently used
	// first.
	PerPlan []PlanStats
}

// PlanStats is the per-plan slice of CacheStats.
type PlanStats struct {
	Key  PlanKey
	Hits uint64
}

// HitRate returns hits / (hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// PlanCache is a bounded LRU cache of plans keyed by canonical
// parameters. It amortizes plan construction (the window design the
// paper's framework amortizes across transforms) across callers: the
// serving layer resolves every request through one. Lookups for the same
// missing key are coalesced — concurrent callers wait for a single
// build. A PlanCache is safe for concurrent use.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	lru       *list.List // of *cacheEntry, front = most recent
	entries   map[PlanKey]*cacheEntry
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key   PlanKey
	plan  *Plan
	err   error
	ready chan struct{} // closed when plan/err are set
	elem  *list.Element
	hits  uint64
}

// NewPlanCache returns a cache holding at most capacity plans
// (capacity <= 0 means 16).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 16
	}
	return &PlanCache{
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[PlanKey]*cacheEntry),
	}
}

// Get returns the plan for (n, opts), building and caching it on a miss.
// The second result reports whether the plan came from the cache (a
// lookup that joins an in-flight build counts as a hit).
func (c *PlanCache) Get(n int, opts ...Option) (*Plan, bool, error) {
	return c.get(KeyOf(n, opts...), func() (*Plan, error) { return NewPlan(n, opts...) })
}

// GetKey is Get addressed by a canonical key (the serving layer's path:
// requests arrive as explicit parameter tuples).
func (c *PlanCache) GetKey(key PlanKey) (*Plan, bool, error) {
	return c.get(key, func() (*Plan, error) {
		return NewPlan(key.N,
			WithSegments(key.Segments),
			WithOversampling(key.Mu, key.Nu),
			WithTaps(key.Taps))
	})
}

func (c *PlanCache) get(key PlanKey, build func() (*Plan, error)) (*Plan, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		e.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.plan, true, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.plan, e.err = build()
	close(e.ready)

	c.mu.Lock()
	if e.err != nil {
		// Do not cache failures; later callers retry the build.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else {
		e.elem = c.lru.PushFront(e)
		c.trimLocked()
	}
	c.mu.Unlock()
	return e.plan, false, e.err
}

// Add inserts a pre-built plan under its canonical key and returns that key. An existing entry for
// the key is replaced.
func (c *PlanCache) Add(p *Plan) PlanKey {
	key := p.Key()
	e := &cacheEntry{key: key, plan: p, ready: make(chan struct{})}
	close(e.ready)
	c.mu.Lock()
	if old, ok := c.entries[key]; ok && old.elem != nil {
		c.lru.Remove(old.elem)
	}
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.trimLocked()
	c.mu.Unlock()
	return key
}

// CachedPlan pairs a resident plan with its canonical key.
type CachedPlan struct {
	Key  PlanKey
	Plan *Plan
}

// Plans returns the resident plans, most recently used first — the
// enumeration observability endpoints use to render every plan's
// Report under its key. The slice is a snapshot; the plans are the live
// cached instances.
func (c *PlanCache) Plans() []CachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedPlan, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if e.plan != nil {
			out = append(out, CachedPlan{Key: e.key, Plan: e.plan})
		}
	}
	return out
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Size:      c.lru.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		st.PerPlan = append(st.PerPlan, PlanStats{Key: e.key, Hits: e.hits})
	}
	return st
}

// trimLocked evicts least-recently-used completed entries past capacity.
func (c *PlanCache) trimLocked() {
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.evictions++
	}
}
