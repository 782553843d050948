package coverage

import "sync"

// DefaultCacheShards is the default number of lock stripes of the
// evaluator's probe memo. Sixteen matches the paper's 16-way parallel
// coverage testing: with one stripe per worker on average, memo lookups
// almost never contend.
const DefaultCacheShards = 16

// shardedCache is a lock-striped memo table keyed by clause canonical keys.
// The single-mutex caches it replaces serialized all 16 coverage workers
// behind one lock; striping makes lookups of distinct clauses proceed in
// parallel. Values must be safe to share once stored (the evaluator stores
// probes, whose lazily resolved parts are guarded by the probe's mutex).
type shardedCache[V any] struct {
	shards []cacheShard[V]
	mask   uint32
}

type cacheShard[V any] struct {
	mu sync.Mutex
	m  map[string]V
	// Pad the shard (8-byte mutex + 8-byte map header + 48) to a full
	// 64-byte cache line so adjacent locks don't false-share.
	_ [48]byte
}

// newShardedCache builds a cache with n stripes, rounded up to a power of
// two; n <= 0 selects DefaultCacheShards.
func newShardedCache[V any](n int) *shardedCache[V] {
	if n <= 0 {
		n = DefaultCacheShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	c := &shardedCache[V]{shards: make([]cacheShard[V], size), mask: uint32(size - 1)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]V)
	}
	return c
}

// shardFor hashes the key (FNV-1a) onto a stripe.
func (c *shardedCache[V]) shardFor(key string) *cacheShard[V] {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return &c.shards[h&c.mask]
}

// getOrCompute returns the cached value for key, computing and storing it on
// a miss. The compute function runs outside the shard lock, so two
// goroutines racing on the same key may both compute; the first store wins
// and both observe an equivalent value (compute must be deterministic).
func (c *shardedCache[V]) getOrCompute(key string, compute func() V) V {
	s := c.shardFor(key)
	s.mu.Lock()
	if v, ok := s.m[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := compute()
	s.mu.Lock()
	if prev, ok := s.m[key]; ok {
		// A racing goroutine stored first; keep its value so every caller
		// shares one instance.
		s.mu.Unlock()
		return prev
	}
	s.m[key] = v
	s.mu.Unlock()
	return v
}
