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
// generations are evicted lazily as lookups touch them. Standalone pools
// never leave generation 0, where Get/Put behave exactly as before.
type MemoryPool struct {
	hits   atomic.Int64
	misses atomic.Int64
	// stale counts Get/GetGen calls that found an entry whose generation did
	// not match the caller's (a subset of misses).
	stale atomic.Int64
	// gen is the pool's current generation: the snapshot version whose
	// representations the pool considers live. Entries below it are evicted
	// lazily on lookup.
	gen atomic.Uint64
	// maxPerShard bounds each shard's entry count (0 = unbounded), keeping a
	// long-lived serving process from growing without limit. Atomic so
	// SetBound can retune a live pool between generations.
	maxPerShard atomic.Int64
	// adviseMu guards the Advise window below (the counters themselves are
	// the atomics above; the window is the last values Advise sampled).
	adviseMu                        sync.Mutex
	lastHits, lastMisses, lastStale int64
	shards                          [poolShardCount]poolShard
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
	// ref is the second-chance bit: set on every Get (an atomic, so the read
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
// clock/second-chance policy: every Get marks its entry referenced, and the
// clock sweep evicts the first entry it finds unreferenced, clearing marks
// as it passes. Hot sub-plan signatures (the optimizer re-probing common
// join prefixes) therefore survive a stream of one-off insertions, which
// arbitrary-victim eviction could not guarantee. Entries already evicted for
// generation staleness are reclaimed by the sweep before anything live.
func NewBoundedMemoryPool(maxEntries int) *MemoryPool {
	p := &MemoryPool{}
	if maxEntries > 0 {
		p.maxPerShard.Store(int64((maxEntries + poolShardCount - 1) / poolShardCount))
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
// subtree descriptors, so a byte-at-a-time hash would dominate Get) to its
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

// Get returns the stored representation for a sub-plan signature at the
// pool's current generation, marking the entry referenced for the
// second-chance eviction sweep.
//
// costlint:noalloc
func (p *MemoryPool) Get(sig string) (g, r []float64, ok bool) {
	return p.GetGen(sig, p.gen.Load())
}

// GetGen is Get pinned to the caller's snapshot generation: it returns a
// representation only if the entry was recorded under exactly gen, so a
// request serving snapshot N can never consume weights-dependent state from
// snapshot N±1, even while a publish is in flight. An entry found under a
// generation older than the pool's current one is lazily evicted.
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

// Put stores a representation (copied) under the signature at the pool's
// current generation.
func (p *MemoryPool) Put(sig string, g, r []float64) {
	p.PutGen(sig, g, r, p.gen.Load())
}

// PutGen is Put tagged with the snapshot generation the representation was
// computed under — the caller's generation, not the pool's, so a request
// that resolved its snapshot before a publish records its entries honestly
// and they are rejected (not served) by readers of the new generation.
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
		// them (Put copies, entries never mutate a published slice).
		e.g, e.r = gc, rc
		e.gen = gen
		s.mu.Unlock()
		return
	}
	// Encoded plans slice every subtree signature out of the root's; the
	// entry keeps its own copy so a small key does not pin a whole plan's.
	sig = strings.Clone(sig)
	e := &poolEntry{sig: sig, g: gc, r: rc, gen: gen}
	if max := int(p.maxPerShard.Load()); max > 0 {
		// A shrunk bound (SetBound) may leave the ring oversized; evict down
		// before placing the new entry so residency converges on the bound.
		for len(s.ring) > max {
			s.evictOneLocked()
		}
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

// evictOneLocked removes one ring slot by the clock policy — dead slots are
// reclaimed first, referenced entries get their second chance — compacting
// the ring. Called with the shard write lock held, only on the shrink path
// (the steady-state full-shard path reuses slots in place instead).
func (s *poolShard) evictOneLocked() {
	for {
		v := s.ring[s.hand]
		if !v.dead {
			if v.ref.CompareAndSwap(true, false) {
				s.hand = (s.hand + 1) % len(s.ring)
				continue
			}
			delete(s.m, v.sig)
		}
		s.ring = append(s.ring[:s.hand], s.ring[s.hand+1:]...)
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		return
	}
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
func (p *MemoryPool) Bound() int {
	per := p.maxPerShard.Load()
	if per == 0 {
		return 0
	}
	return int(per) * poolShardCount
}

// SetBound re-targets the pool's residency bound across generations
// (0 disables bounding). Like the constructor's bound it is approximate —
// enforced per shard — and it applies to a live pool: growth takes effect
// immediately, shrinking evicts down to the new bound right away using the
// clock policy (dead generation-evicted slots reclaimed first, referenced
// entries keeping their second chance). A pool constructed unbounded builds
// its clock ring here on first bounding; that ring's initial order follows
// map iteration, so the first sweep order over pre-existing entries is
// arbitrary — subsequent behavior is the standard clock policy.
func (p *MemoryPool) SetBound(maxEntries int) {
	var per int64
	if maxEntries > 0 {
		per = int64((maxEntries + poolShardCount - 1) / poolShardCount)
	}
	p.maxPerShard.Store(per)
	if per == 0 {
		// Unbounded: drop the rings; a later SetBound rebuilds them.
		for i := range p.shards {
			s := &p.shards[i]
			s.mu.Lock()
			s.ring = s.ring[:0]
			s.hand = 0
			s.mu.Unlock()
		}
		return
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		if len(s.ring) < len(s.m) {
			// Previously unbounded (or rings dropped): rebuild the ring over
			// the resident entries.
			s.ring = s.ring[:0]
			s.hand = 0
			for _, e := range s.m {
				s.ring = append(s.ring, e)
			}
		}
		for len(s.ring) > int(per) {
			s.evictOneLocked()
		}
		s.mu.Unlock()
	}
}

// PoolAdvice is a sizing recommendation computed from the pool's observed
// behavior since the previous Advise call.
type PoolAdvice struct {
	// Bound is the configured residency bound at advice time (0 unbounded);
	// Entries the resident count.
	Bound   int
	Entries int
	// HitRate and StaleRate cover the window since the last Advise call
	// (unlike the lifetime MemoryPool.HitRate/StaleRate).
	HitRate   float64
	StaleRate float64
	// Recommended is the suggested bound; pass it to SetBound to apply.
	// Equal to Bound when no change is warranted.
	Recommended int
	// Reason explains the recommendation (for operator logs).
	Reason string
}

// Advise returns a bound recommendation from the pool's hit/stale rates and
// occupancy over the window since the last Advise call — the adaptive-sizing
// hook for hot-swap serving, where each publish briefly doubles the live
// working set (old-generation entries decay lazily while the new generation
// repopulates). Call it at a coarse cadence (per publish, or per N seconds)
// and apply with SetBound; the heuristics:
//
//   - High stale rate → a generation turnover is in flight and stale entries
//     double-book capacity: recommend transient headroom proportional to the
//     stale share so the new generation doesn't evict its own entries.
//   - Low hit rate with the pool near its bound → the working set does not
//     fit: recommend doubling.
//   - High hit rate with the pool at most half full → the bound is oversized
//     for the workload: recommend shrinking toward the resident set (25%
//     headroom).
//   - Unbounded pools are recommended a bound that holds the resident set
//     with 25% headroom, so long-lived processes can cap growth.
func (p *MemoryPool) Advise() PoolAdvice {
	p.adviseMu.Lock()
	hits, misses, stale := p.hits.Load(), p.misses.Load(), p.stale.Load()
	dh, dm, ds := hits-p.lastHits, misses-p.lastMisses, stale-p.lastStale
	p.lastHits, p.lastMisses, p.lastStale = hits, misses, stale
	p.adviseMu.Unlock()

	a := PoolAdvice{Bound: p.Bound(), Entries: p.Len()}
	a.Recommended = a.Bound
	total := dh + dm
	if total > 0 {
		a.HitRate = float64(dh) / float64(total)
		a.StaleRate = float64(ds) / float64(total)
	}
	withHeadroom := a.Entries + a.Entries/4
	switch {
	case total == 0:
		a.Reason = "no lookups in window; keep bound"
	case a.Bound == 0:
		a.Recommended = withHeadroom
		a.Reason = "unbounded; bound to resident set + 25% headroom"
	case a.StaleRate > 0.1:
		a.Recommended = a.Bound + int(a.StaleRate*float64(a.Bound))
		a.Reason = "generation turnover in flight; transient headroom for double-booked entries"
	case a.HitRate < 0.5 && a.Entries >= a.Bound*9/10:
		a.Recommended = a.Bound * 2
		a.Reason = "working set exceeds bound (low hit rate at full residency); grow"
	case a.HitRate > 0.9 && a.Entries <= a.Bound/2:
		a.Recommended = withHeadroom
		a.Reason = "bound oversized for workload (high hit rate, low occupancy); shrink"
	default:
		a.Reason = "hit/occupancy within band; keep bound"
	}
	return a
}

// Reset clears contents and counters. All shard locks are held for the
// clear, so it is a point-in-time barrier like the seed's single-mutex
// Reset: no Put that completed before Reset returns survives it. (Hit/miss
// counters are updated outside the locks, so a Get racing Reset may count
// against the fresh statistics; that skew is cosmetic.) The generation is
// preserved — it tracks the served weights, not the pool contents.
func (p *MemoryPool) Reset() {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	for i := range p.shards {
		p.shards[i].m = make(map[string]*poolEntry)
		p.shards[i].ring = p.shards[i].ring[:0]
		p.shards[i].hand = 0
	}
	p.hits.Store(0)
	p.misses.Store(0)
	p.stale.Store(0)
	p.adviseMu.Lock()
	p.lastHits, p.lastMisses, p.lastStale = 0, 0, 0
	p.adviseMu.Unlock()
	for i := range p.shards {
		p.shards[i].mu.Unlock()
	}
}
