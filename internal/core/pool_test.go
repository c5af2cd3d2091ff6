package core

import (
	"sync"
	"testing"
	"unsafe"

	"costest/internal/plan"
)

// testID is a sub-plan ID for tests: distinct for each i, its halves mixed
// like a hash's so that shards and doorkeeper bits spread as they do in
// serving.
func testID(i int) plan.ID {
	mix := func(x uint64) uint64 { x ^= x >> 33; x *= 0xff51afd7ed558ccd; return x ^ x>>33 }
	return plan.ID{mix(uint64(i)), mix(^uint64(i))}
}

// pooledCopy returns a copy of the representation p holds for id at gen.
func pooledCopy(p *MemoryPool, m *Model, id plan.ID, gen uint64) (g, r []float64, ok bool) {
	g, r = make([]float64, m.Cfg.Hidden), make([]float64, m.Cfg.Hidden)
	return g, r, p.GetGen(id, gen, g, r)
}

// fillPool offers distinct sub-plans until every shard of the bounded pool
// p is full, so that admitting anything more evicts.
func fillPool(t *testing.T, p *MemoryPool) {
	t.Helper()
	g, r := []float64{0, 0}, []float64{0, 0}
	for i := 0; ; i++ {
		full := true
		for j := range p.shards {
			full = full && p.shards[j].full.Load()
		}
		if full {
			return
		}
		if i > 100*p.Bound() {
			t.Fatal("the pool never filled")
		}
		p.PutGen(testID(i), g, r, 0)
	}
}

// TestPoolAdmitsOnSecondSighting: a bounded pool with a free slot keeps a
// first offer (it evicts nothing); once full, it turns a sub-plan's first
// offer away and keeps its second. An unbounded pool keeps every first offer.
func TestPoolAdmitsOnSecondSighting(t *testing.T) {
	g := []float64{1, 2}
	r := []float64{3, 4}
	early, once := testID(-1), testID(-2)
	p := NewBoundedMemoryPool(64)
	p.PutGen(early, g, r, 0)
	if !p.GetGen(early, 0, nil, nil) || p.Declined() != 0 {
		t.Fatal("a pool with free slots declined a first offer")
	}
	fillPool(t, p)
	p.door.reset() // forget the fillers' sightings: one could share a bit with "once"
	admitted, declined := p.Admitted(), p.Declined()
	p.PutGen(once, g, r, 0)
	if p.GetGen(once, 0, nil, nil) {
		t.Fatal("a one-off offer to a full pool became resident")
	}
	if p.Admitted() != admitted || p.Declined() != declined+1 {
		t.Fatalf("admitted %d → %d, declined %d → %d after one first sighting",
			admitted, p.Admitted(), declined, p.Declined())
	}
	p.PutGen(once, g, r, 0)
	gg, rr := make([]float64, 2), make([]float64, 2)
	if !p.GetGen(once, 0, gg, rr) || gg[1] != 2 || rr[0] != 3 {
		t.Fatal("the second offer was not admitted")
	}
	if p.Admitted() != admitted+1 || p.Declined() != declined+1 {
		t.Fatalf("admitted %d → %d, declined %d → %d after a second sighting",
			admitted, p.Admitted(), declined, p.Declined())
	}

	u := NewMemoryPool()
	u.PutGen(once, g, r, 0)
	if !u.GetGen(once, 0, nil, nil) || u.Declined() != 0 {
		t.Fatal("an unbounded pool declined a first offer")
	}
}

// TestPoolStaleLookupAdmitsRefresh: a resident entry found stale has proven
// that it recurs, so the refresh that follows a publish is admitted even
// after the doorkeeper has forgotten the sub-plan. A resident sub-plan
// that nobody looked up since is the control: its refresh is declined.
func TestPoolStaleLookupAdmitsRefresh(t *testing.T) {
	g := []float64{1, 2}
	r := []float64{3, 4}
	p := NewBoundedMemoryPool(64)
	fillPool(t, p)
	lookedUp, control := testID(-1), testID(-2)
	for _, id := range []plan.ID{lookedUp, control} {
		p.PutGen(id, g, r, 1)
		p.PutGen(id, g, r, 1)
		if !p.GetGen(id, 1, nil, nil) {
			t.Fatalf("%x not resident after its second sighting", id)
		}
	}
	p.door.reset() // forget every sighting, as the periodic reset does
	p.SetGeneration(2)
	if p.GetGen(lookedUp, 2, nil, nil) {
		t.Fatal("a generation-1 entry served a generation-2 caller")
	}
	p.PutGen(lookedUp, g, r, 2)
	if !p.GetGen(lookedUp, 2, nil, nil) {
		t.Fatal("the refresh after a stale lookup was not admitted")
	}
	p.PutGen(control, g, r, 2)
	if p.GetGen(control, 2, nil, nil) {
		t.Fatal("control: a forgotten sub-plan was admitted without a stale lookup; the test is vacuous")
	}
}

// TestPoolWarmPathZeroAlloc: once a bounded pool is full and its slots have
// grown to the vectors' size, admitting a new sub-plan recycles the clock
// victim's storage and a lookup copies out — neither allocates.
func TestPoolWarmPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const bound = 256
	p := NewBoundedMemoryPool(bound)
	g, r := make([]float64, 16), make([]float64, 16)
	sigs := make([]plan.ID, 8*bound)
	for i := range sigs {
		sigs[i] = testID(i)
	}
	offer := func(sig plan.ID) {
		p.PutGen(sig, g, r, 0)
		p.PutGen(sig, g, r, 0)
	}
	for _, sig := range sigs[:4*bound] {
		offer(sig)
	}
	if p.Len() < bound {
		t.Fatalf("pool holds %d entries, want it full (%d)", p.Len(), bound)
	}
	i := 4 * bound
	allocs := testing.AllocsPerRun(2*bound, func() {
		offer(sigs[i])
		i++
	})
	if allocs != 0 {
		t.Errorf("warm PutGen into a full shard allocates %.1f objects/op, want 0", allocs)
	}
	out := make([]float64, 16)
	allocs = testing.AllocsPerRun(500, func() {
		if !p.GetGen(sigs[i-1], 0, out, out) {
			t.Fatal("the newest admission is not resident")
		}
	})
	if allocs != 0 {
		t.Errorf("GetGen allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPoolRecycledSlotsNeverTorn hammers a small bounded pool from writers
// and readers at once, so slots are recycled under concurrent lookups. Each
// sub-plan's G/R is a known function of it; a hit must return exactly that
// vector, never a mix of two sub-plans' (run under -race).
func TestPoolRecycledSlotsNeverTorn(t *testing.T) {
	const (
		dim     = 32
		nsigs   = 512
		workers = 4
		rounds  = 4000
	)
	p := NewBoundedMemoryPool(64) // 2 slots per shard: constant recycling
	sigs := make([]plan.ID, nsigs)
	for i := range sigs {
		sigs[i] = testID(i)
	}
	vec := func(i int, sign float64) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = sign * float64(i*dim+j)
		}
		return v
	}
	for i, sig := range sigs { // fill the pool: readers hit from the start
		p.PutGen(sig, vec(i, 1), vec(i, -1), 0)
		p.PutGen(sig, vec(i, 1), vec(i, -1), 0)
	}
	var wg sync.WaitGroup
	var hits [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, r := make([]float64, dim), make([]float64, dim)
			for k := 0; k < rounds; k++ {
				i := (k*7 + w*131) % nsigs
				if w%2 == 0 {
					p.PutGen(sigs[i], vec(i, 1), vec(i, -1), 0)
					continue
				}
				if !p.GetGen(sigs[i], 0, g, r) {
					continue
				}
				hits[w]++
				for j := 0; j < dim; j++ {
					if g[j] != float64(i*dim+j) || r[j] != -float64(i*dim+j) {
						t.Errorf("sub-plan %d: torn vector at %d: g=%v r=%v", i, j, g[j], r[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if hits[1]+hits[3] == 0 {
		t.Fatal("readers never hit: the test exercised no recycled slot")
	}
}

// TestPoolShardLayout pins the padding that keeps shards on separate cache
// lines: every shard starts on a 64-byte boundary of the pool and fills whole
// lines, so one core's lock and counter writes never invalidate the line
// another core reads in a neighbouring shard.
func TestPoolShardLayout(t *testing.T) {
	var p MemoryPool
	if off := unsafe.Offsetof(p.shards); off%64 != 0 {
		t.Errorf("shards start at byte %d of MemoryPool, want a multiple of 64", off)
	}
	if size := unsafe.Sizeof(p.shards[0]); size%64 != 0 {
		t.Errorf("poolShard is %d bytes, want a multiple of 64", size)
	}
}
