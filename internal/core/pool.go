package core

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// poolShardCount is the number of independent shards a MemoryPool splits its
// signature space across. Must be a power of two so the shard index is a
// cheap mask of the signature hash.
const poolShardCount = 32

// MemoryPool is the Representation Memory Pool of Section 3: a mapping from
// sub-plan signatures to their learned representations, letting the online
// estimator skip re-evaluating sub-plans the optimizer has asked about
// before. It is safe for concurrent use.
//
// The map is sharded by signature hash and the hit/miss statistics are plain
// atomics, so the read path takes only one shard's RLock — concurrent
// optimizer threads probing the pool never serialize on a single mutex.
//
// Pooled representations are functions of the model weights, so a pool
// serving a hot-swappable model is generation-tagged: every entry records
// the snapshot generation it was computed under (PutGen), lookups only
// accept entries of the caller's generation (GetGen), and publishing new
// weights advances the pool's generation (SetGeneration) — an O(1)
// invalidation instead of a stop-the-world flush. Entries from superseded
// generations are evicted lazily as lookups touch them.
type MemoryPool struct {
	hits   atomic.Int64
	misses atomic.Int64
	// stale counts GetGen calls that found an entry whose generation did not
	// match the caller's (a subset of misses).
	stale atomic.Int64
	// gen is the pool's current generation: the snapshot version whose
	// representations the pool considers live. Entries below it are evicted
	// lazily on lookup.
	gen atomic.Uint64
	// maxPerShard bounds each shard's entry count (0 = unbounded), keeping a
	// long-lived serving process from growing without limit. Fixed at
	// construction.
	maxPerShard int
	shards      [poolShardCount]poolShard
}

type poolShard struct {
	mu sync.RWMutex
	m  map[string]*poolEntry
	// ring holds the shard's resident entries in clock order (bounded pools
	// only); hand is the clock sweep position.
	ring []*poolEntry
	hand int
}

type poolEntry struct {
	sig  string
	g, r []float64
	// gen is the snapshot generation the representation was computed under.
	gen uint64
	// dead marks an entry lazily evicted for generation staleness: it has
	// left the map but still occupies a ring slot, which the next clock
	// sweep reclaims first. Guarded by the shard write lock.
	dead bool
	// ref is the second-chance bit: set on every GetGen (an atomic, so the read
	// path stays under the shard RLock), cleared by the clock sweep.
	ref atomic.Bool
}

// NewMemoryPool returns an empty, unbounded pool.
func NewMemoryPool() *MemoryPool {
	return NewBoundedMemoryPool(0)
}

// NewBoundedMemoryPool returns an empty pool holding at most maxEntries
// sub-plan representations (0 means unbounded). The bound is approximate —
// it is enforced per shard — and eviction follows a per-shard
// clock/second-chance policy: every GetGen marks its entry referenced, and the
// clock sweep evicts the first entry it finds unreferenced, clearing marks
// as it passes. Hot sub-plan signatures (the optimizer re-probing common
// join prefixes) therefore survive a stream of one-off insertions, which
// arbitrary-victim eviction could not guarantee. Entries already evicted for
// generation staleness are reclaimed by the sweep before anything live.
func NewBoundedMemoryPool(maxEntries int) *MemoryPool {
	p := &MemoryPool{}
	if maxEntries > 0 {
		p.maxPerShard = (maxEntries + poolShardCount - 1) / poolShardCount
	}
	for i := range p.shards {
		p.shards[i].m = make(map[string]*poolEntry)
	}
	return p
}

// poolHashSeed keys the shard hash; one process-wide seed keeps sharding
// deterministic within a run while defeating adversarial signature layouts.
var poolHashSeed = maphash.MakeSeed()

// shardFor hashes sig (hardware-accelerated maphash; signatures are long
// subtree descriptors, so a byte-at-a-time hash would dominate GetGen) to its
// shard. Allocation-free.
func (p *MemoryPool) shardFor(sig string) *poolShard {
	return &p.shards[maphash.String(poolHashSeed, sig)&(poolShardCount-1)]
}

// Generation returns the pool's current generation.
func (p *MemoryPool) Generation() uint64 { return p.gen.Load() }

// SetGeneration advances the pool to generation gen, logically invalidating
// every entry recorded under an earlier generation in O(1): lookups stop
// accepting them immediately and they are physically evicted as later
// lookups touch them. Generations are monotonic — a lower or equal gen is a
// no-op — so concurrent publishers cannot move the pool backwards.
func (p *MemoryPool) SetGeneration(gen uint64) {
	for {
		cur := p.gen.Load()
		if gen <= cur || p.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// GetGen returns the stored representation for a sub-plan signature, marking
// the entry referenced for the second-chance eviction sweep. It is pinned to
// the caller's snapshot generation: it returns a representation only if the
// entry was recorded under exactly gen, so a request serving snapshot N can
// never consume weights-dependent state from snapshot N±1, even while a
// publish is in flight. An entry found under a generation older than the
// pool's current one is lazily evicted.
//
// costlint:noalloc
func (p *MemoryPool) GetGen(sig string, gen uint64) (g, r []float64, ok bool) {
	s := p.shardFor(sig)
	s.mu.RLock()
	e, found := s.m[sig]
	var egen uint64
	if found {
		g, r = e.g, e.r
		egen = e.gen
		e.ref.Store(true)
	}
	s.mu.RUnlock()
	if !found {
		p.misses.Add(1)
		return nil, nil, false
	}
	if egen != gen {
		p.stale.Add(1)
		p.misses.Add(1)
		if egen < p.gen.Load() {
			// The entry belongs to a superseded generation: evict it now
			// rather than letting dead weight crowd the shard. Re-check under
			// the write lock — a concurrent PutGen may have refreshed it.
			s.mu.Lock()
			if cur, resident := s.m[sig]; resident && cur == e && e.gen < p.gen.Load() {
				delete(s.m, sig)
				e.dead = true
				e.ref.Store(false)
			}
			s.mu.Unlock()
		}
		return nil, nil, false
	}
	p.hits.Add(1)
	return g, r, true
}

// PutGen stores a representation (copied) under the signature, tagged with
// the snapshot generation it was computed under — the caller's generation,
// not the pool's, so a request that resolved its snapshot before a publish
// records its entries honestly and they are rejected (not served) by readers
// of the new generation.
//
// When a bounded shard is full, the clock hand sweeps the shard's ring:
// slots holding generation-evicted (dead) entries are reclaimed first,
// entries referenced since the last pass get a second chance (their bit is
// cleared), and otherwise the first unreferenced entry is evicted, its ring
// slot reused for the new entry. The sweep terminates within two passes —
// the first pass can clear every bit, the second must find a victim.
func (p *MemoryPool) PutGen(sig string, g, r []float64, gen uint64) {
	gc := make([]float64, len(g))
	rc := make([]float64, len(r))
	copy(gc, g)
	copy(rc, r)
	s := p.shardFor(sig)
	s.mu.Lock()
	if e, resident := s.m[sig]; resident {
		// Refresh in place; readers that already fetched the old slices keep
		// them (PutGen copies, entries never mutate a published slice).
		e.g, e.r = gc, rc
		e.gen = gen
		s.mu.Unlock()
		return
	}
	// Encoded plans slice every subtree signature out of the root's; the
	// entry keeps its own copy so a small key does not pin a whole plan's.
	sig = strings.Clone(sig)
	e := &poolEntry{sig: sig, g: gc, r: rc, gen: gen}
	if max := p.maxPerShard; max > 0 {
		if len(s.ring) == max {
			for {
				v := s.ring[s.hand]
				if !v.dead {
					if v.ref.CompareAndSwap(true, false) {
						s.hand = (s.hand + 1) % len(s.ring)
						continue
					}
					delete(s.m, v.sig)
				}
				s.ring[s.hand] = e
				s.hand = (s.hand + 1) % len(s.ring)
				break
			}
		} else {
			s.ring = append(s.ring, e)
		}
	}
	s.m[sig] = e
	s.mu.Unlock()
}

// Len returns the number of cached sub-plans.
func (p *MemoryPool) Len() int {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		total += len(s.m)
		s.mu.RUnlock()
	}
	return total
}

// HitRate returns hits/(hits+misses) over the pool's lifetime.
func (p *MemoryPool) HitRate() float64 {
	hits := p.hits.Load()
	total := hits + p.misses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// StaleRate returns the fraction of lookups that found an entry of the
// wrong generation — the transient cost of a hot swap, decaying to zero as
// the new generation repopulates the pool.
func (p *MemoryPool) StaleRate() float64 {
	total := p.hits.Load() + p.misses.Load()
	if total == 0 {
		return 0
	}
	return float64(p.stale.Load()) / float64(total)
}

// Bound returns the pool's configured residency bound (0 = unbounded),
// rounded up to a whole number of per-shard slots.
func (p *MemoryPool) Bound() int { return p.maxPerShard * poolShardCount }
