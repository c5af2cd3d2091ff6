package core

import (
	"sync"
	"sync/atomic"

	"costest/internal/plan"
)

// poolShardCount is the number of independent shards a MemoryPool splits its
// sub-plan space across. Must be a power of two so the shard index is a cheap
// mask of the sub-plan's ID.
const poolShardCount = 32

// Doorkeeper sizing, both relative to a bounded pool's residency bound: the
// filter holds doorBitsPerEntry bits per resident entry (rounded up to a
// power of two), and forgets every sighting once doorResetFactor × bound
// fresh bits have been set, so "seen before" means "seen recently". The
// filter is then at most 1 − e^(−1/16) ≈ 6 % full, which bounds how many
// one-offs a colliding bit admits; those false admissions, not the length
// of the window, are what cost the pool its hits.
const (
	doorBitsPerEntry = 16
	doorResetFactor  = 1
)

// MemoryPool is the Representation Memory Pool of Section 3: a mapping from
// sub-plan IDs (plan.ID) to their learned representations, letting the online
// estimator skip re-evaluating sub-plans the optimizer has asked about
// before. It is safe for concurrent use.
//
// The ID is already a keyed hash, so the pool hashes nothing: the ID's low
// bits pick the shard, its second half the doorkeeper bit, and the whole
// 128-bit ID keys the shard's map. The statistics are per-shard atomics, so
// the read path takes only one shard's RLock and writes only that shard's
// cache lines — concurrent optimizer threads probing the pool neither
// serialize on a single mutex nor contend on a shared counter.
//
// Pooled representations are functions of the model weights, so a pool
// serving a hot-swappable model is generation-tagged: every entry records
// the snapshot generation it was computed under (PutGen), lookups only
// accept entries of the caller's generation (GetGen), and publishing new
// weights advances the pool's generation (SetGeneration) — an O(1)
// invalidation instead of a stop-the-world flush. Entries from superseded
// generations are evicted lazily as lookups touch them.
type MemoryPool struct {
	// gen is the pool's current generation: the snapshot version whose
	// representations the pool considers live. Entries below it are evicted
	// lazily on lookup.
	gen atomic.Uint64
	// maxPerShard bounds each shard's entry count (0 = unbounded), keeping a
	// long-lived serving process from growing without limit. Fixed at
	// construction.
	maxPerShard int
	// door admits a sub-plan to a full shard of a bounded pool on its
	// second sighting; nil for an unbounded pool, which evicts nothing and
	// admits every offer.
	door *doorkeeper
	// The pad puts shards on a cache-line boundary, and a shard fills whole
	// lines, so cores working in different shards never write one line
	// (TestPoolShardLayout).
	_      [40]byte
	shards [poolShardCount]poolShard
}

type poolShard struct {
	mu sync.RWMutex
	m  map[plan.ID]*poolEntry
	// ring holds a bounded shard's entries in clock order; its capacity is
	// the shard bound and never grows, so entries are addressed in place and
	// a full shard recycles a victim's slot — storage included — for the
	// next admission. hand is the clock sweep position. Unbounded shards
	// leave it empty.
	ring []poolEntry
	hand int
	// full is set once a bounded shard's ring has no unused slot. From then
	// on every admission evicts, so the doorkeeper decides it.
	full atomic.Bool

	hits, misses atomic.Int64
	// stale counts GetGen calls that found an entry whose generation did not
	// match the caller's (a subset of misses).
	stale atomic.Int64
	// admitted counts PutGen calls that stored their representation,
	// declined those the doorkeeper turned away as first sightings.
	admitted, declined atomic.Int64
	_                  [16]byte
}

// poolEntry owns its storage: the G/R vectors are rewritten in place when the
// entry is refreshed or its slot recycled, and readers copy out under the
// shard lock, so no caller ever holds pool memory.
type poolEntry struct {
	id   plan.ID
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

// store overwrites the entry's contents in place; its buffers grow only when
// the new contents outgrow them.
//
// costlint:noalloc
func (e *poolEntry) store(g, r []float64, gen uint64) {
	e.g = e.g[:0]
	e.g = append(e.g, g...)
	e.r = e.r[:0]
	e.r = append(e.r, r...)
	e.gen = gen
}

// doorkeeper is TinyLFU's admission filter (Einziger, Friedman & Manes, ACM
// TOS 2017): one bit per sub-plan, picked by its ID, records that it has been
// offered before. A sub-plan that never recurs costs one bit and is never
// stored, so one-offs neither allocate nor evict the entries that do recur.
// The bits are atomics, so marking takes no lock; after a fixed number of
// fresh bits the filter is cleared, bounding both its false-positive rate and
// how long a sighting counts.
type doorkeeper struct {
	bits []atomic.Uint64
	// mask selects a bit index from the ID's second half (the first picks
	// the shard).
	mask       uint64
	resetEvery uint64
	// sets counts fresh bits. Every first sighting writes it, so it is
	// padded off the cache line of the fields every mark reads.
	_    [64]byte
	sets atomic.Uint64
}

func newDoorkeeper(bound int) *doorkeeper {
	n := uint64(64)
	for n < uint64(bound)*doorBitsPerEntry {
		n <<= 1
	}
	return &doorkeeper{
		bits:       make([]atomic.Uint64, n/64),
		mask:       n - 1,
		resetEvery: uint64(bound) * doorResetFactor,
	}
}

// mark sets h's bit and reports whether it was already set.
//
// costlint:noalloc
func (d *doorkeeper) mark(h uint64) bool {
	i := h & d.mask
	w, b := &d.bits[i/64], uint64(1)<<(i%64)
	// A CAS loop rather than Uint64.Or: go1.24.0 on amd64 clobbers a
	// register when Or's result is used.
	for {
		old := w.Load()
		if old&b != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|b) {
			break
		}
	}
	if d.sets.Add(1)%d.resetEvery == 0 {
		d.reset()
		w.Store(b) // the sighting that triggered the reset still counts
	}
	return false
}

// reset forgets every sighting.
//
// costlint:noalloc
func (d *doorkeeper) reset() {
	for i := range d.bits {
		d.bits[i].Store(0)
	}
}

// NewMemoryPool returns an empty, unbounded pool. It evicts nothing, so it
// admits every representation on first offer.
func NewMemoryPool() *MemoryPool {
	return NewBoundedMemoryPool(0)
}

// NewBoundedMemoryPool returns an empty pool holding at most maxEntries
// sub-plan representations (0 means unbounded). The bound is approximate —
// it is enforced per shard.
//
// Once a shard is full, so that admitting means evicting, a bounded pool
// admits a sub-plan on its second sighting: the first PutGen only sets its
// doorkeeper bit, so a one-off sub-plan costs no lock, no allocation and no
// eviction. Until then every offer is admitted, since it evicts nothing. A
// resident entry found stale by GetGen has already proven that it recurs, so
// it marks its bit and its refresh after a publish is admitted at once.
//
// Eviction follows a per-shard clock/second-chance policy: every GetGen
// marks its entry referenced, and the clock sweep evicts the first entry it
// finds unreferenced, clearing marks as it passes. Hot sub-plans (the
// optimizer re-probing common join prefixes) therefore survive a stream
// of colder admissions. Entries already evicted for generation staleness are
// reclaimed by the sweep before anything live.
func NewBoundedMemoryPool(maxEntries int) *MemoryPool {
	p := &MemoryPool{}
	if maxEntries > 0 {
		p.maxPerShard = (maxEntries + poolShardCount - 1) / poolShardCount
		p.door = newDoorkeeper(p.Bound())
	}
	for i := range p.shards {
		p.shards[i].m = make(map[plan.ID]*poolEntry, p.maxPerShard)
		p.shards[i].ring = make([]poolEntry, 0, p.maxPerShard)
	}
	return p
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

// GetGen copies the stored representation of a sub-plan into g and r and
// reports whether there was one, marking the entry referenced for the
// second-chance eviction sweep. It is pinned to the caller's snapshot
// generation: it serves a representation only if the entry was recorded
// under exactly gen, so a request serving snapshot N can never consume
// weights-dependent state from snapshot N±1, even while a publish is in
// flight. An entry found under another generation marks the sub-plan's
// doorkeeper bit (it recurs), and one older than the pool's current
// generation is lazily evicted.
//
// costlint:noalloc
func (p *MemoryPool) GetGen(id plan.ID, gen uint64, g, r []float64) bool {
	s := &p.shards[id[0]&(poolShardCount-1)]
	s.mu.RLock()
	e := s.m[id]
	if e == nil {
		s.mu.RUnlock()
		s.misses.Add(1)
		return false
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	egen := e.gen
	if egen == gen {
		copy(g, e.g)
		copy(r, e.r)
		s.mu.RUnlock()
		s.hits.Add(1)
		return true
	}
	s.mu.RUnlock()
	s.stale.Add(1)
	s.misses.Add(1)
	if p.door != nil {
		p.door.mark(id[1])
	}
	if egen < p.gen.Load() {
		// The entry belongs to a superseded generation: evict it now rather
		// than letting dead weight crowd the shard. Re-check under the write
		// lock — a concurrent PutGen may have refreshed or replaced it.
		s.mu.Lock()
		if e := s.m[id]; e != nil && e.gen < p.gen.Load() {
			delete(s.m, id)
			e.dead = true
			e.ref.Store(false)
		}
		s.mu.Unlock()
	}
	return false
}

// PutGen stores a representation (copied) under the sub-plan's ID, tagged
// with the snapshot generation it was computed under — the caller's
// generation, not the pool's, so a request that resolved its snapshot before
// a publish records its entries honestly and they are rejected (not served)
// by readers of the new generation.
//
// A full shard of a bounded pool admits only a sub-plan it has seen before
// (see NewBoundedMemoryPool); a first sighting sets its doorkeeper bit and
// returns. An admitted sub-plan that is resident is refreshed in place.
// Otherwise it takes a ring slot: a free one while the shard fills, then the
// clock victim's — slots holding generation-evicted (dead) entries first,
// entries referenced since the last pass getting a second chance (their bit
// is cleared), and otherwise the first unreferenced entry. The sweep
// terminates within two passes — the first pass can clear every bit, the
// second must find a victim. The victim's buffers are reused, so a warm
// PutGen into a full shard allocates nothing.
//
// costlint:noalloc
func (p *MemoryPool) PutGen(id plan.ID, g, r []float64, gen uint64) {
	s := &p.shards[id[0]&(poolShardCount-1)]
	if p.door != nil && s.full.Load() && !p.door.mark(id[1]) {
		s.declined.Add(1)
		return
	}
	s.admitted.Add(1)
	s.mu.Lock()
	e := s.m[id]
	if e == nil {
		e = s.claim(p.maxPerShard)
		e.id = id
		s.m[id] = e
	}
	e.store(g, r, gen)
	s.mu.Unlock()
}

// claim returns the slot for a sub-plan new to the shard: a fresh entry in
// an unbounded pool; in a bounded one the next unused ring slot while the
// shard fills, then the clock victim, unlinked from the map. The caller
// holds the shard write lock.
func (s *poolShard) claim(max int) *poolEntry {
	if max == 0 {
		return new(poolEntry)
	}
	if n := len(s.ring); n < max {
		s.ring = s.ring[:n+1]
		s.full.Store(n+1 == max)
		return &s.ring[n]
	}
	for {
		v := &s.ring[s.hand]
		s.hand = (s.hand + 1) % len(s.ring)
		if v.dead {
			v.dead = false
			return v
		}
		if v.ref.CompareAndSwap(true, false) {
			continue
		}
		delete(s.m, v.id)
		return v
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

// poolCounts totals the per-shard statistics.
type poolCounts struct{ hits, misses, stale, admitted, declined int64 }

func (p *MemoryPool) counts() (c poolCounts) {
	for i := range p.shards {
		s := &p.shards[i]
		c.hits += s.hits.Load()
		c.misses += s.misses.Load()
		c.stale += s.stale.Load()
		c.admitted += s.admitted.Load()
		c.declined += s.declined.Load()
	}
	return c
}

// HitRate returns hits/(hits+misses) over the pool's lifetime.
func (p *MemoryPool) HitRate() float64 {
	c := p.counts()
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// StaleRate returns the fraction of lookups that found an entry of the
// wrong generation — the transient cost of a hot swap, decaying to zero as
// the new generation repopulates the pool.
func (p *MemoryPool) StaleRate() float64 {
	c := p.counts()
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.stale) / float64(c.hits+c.misses)
}

// Admitted returns how many PutGen calls stored their representation.
func (p *MemoryPool) Admitted() int64 { return p.counts().admitted }

// Declined returns how many PutGen calls a bounded pool turned away as first
// sightings.
func (p *MemoryPool) Declined() int64 { return p.counts().declined }

// Bound returns the pool's configured residency bound (0 = unbounded),
// rounded up to a whole number of per-shard slots.
func (p *MemoryPool) Bound() int { return p.maxPerShard * poolShardCount }
