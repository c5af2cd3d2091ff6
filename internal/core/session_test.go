package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"costest/internal/feature"
	"costest/internal/plan"
)

// benchCorpus builds a small deterministic corpus for the forward-path
// benchmarks (string predicates exercise every embedding segment).
func benchCorpus(tb testing.TB, n int) []*feature.EncodedPlan {
	tb.Helper()
	return labeledPlans(tb, 4242, n, true)
}

// sessionVariants enumerates the architecture variants the session runtime
// must serve.
var sessionVariants = []struct {
	name string
	mod  func(*Config)
}{
	{"pool", func(c *Config) {}},
	{"predlstm", func(c *Config) { c.Pred = PredLSTM }},
	{"repnn", func(c *Config) { c.Rep = RepNN }},
	{"meanpool", func(c *Config) { c.Pred = PredPoolMean }},
}

// TestEstimateZeroAlloc asserts that after warm-up the single-plan entry — a
// batch of one — performs zero heap allocations, both through an explicit
// session and through the Model.Estimate convenience API.
func TestEstimateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eps := benchCorpus(t, 8)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		for _, ep := range eps {
			sess.Estimate(ep) // warm-up sizes every buffer
		}
		var i int
		allocs := testing.AllocsPerRun(200, func() {
			sess.Estimate(eps[i%len(eps)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: session Estimate allocates %.1f objects/op, want 0", variant.name, allocs)
		}
		for _, ep := range eps {
			m.Estimate(ep)
		}
		allocs = testing.AllocsPerRun(200, func() {
			m.Estimate(eps[i%len(eps)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Model.Estimate allocates %.1f objects/op, want 0", variant.name, allocs)
		}
	}
}

// TestPooledPathZeroAlloc asserts that against a warm representation memory
// pool both the raw Get and the full pooled estimate are allocation-free.
func TestPooledPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eps := benchCorpus(t, 8)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	sess := NewBatchSession(m)
	pool := NewMemoryPool()
	for _, ep := range eps {
		sess.EstimateWithPool(ep, pool)
	}
	sig := eps[0].Nodes[eps[0].Root].ID
	g, r := make([]float64, cfg.Hidden), make([]float64, cfg.Hidden)
	allocs := testing.AllocsPerRun(500, func() {
		if !pool.GetGen(sig, pool.Generation(), g, r) {
			t.Fatal("warm pool missed")
		}
	})
	if allocs != 0 {
		t.Errorf("warm pool Get allocates %.1f objects/op, want 0", allocs)
	}
	var i int
	allocs = testing.AllocsPerRun(200, func() {
		sess.EstimateWithPool(eps[i%len(eps)], pool)
		i++
	})
	if allocs != 0 {
		t.Errorf("warm pooled Estimate allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBoundedPoolEviction checks the pool's size knob: a bounded pool must
// stay near its cap and keep serving correct representations. Every
// sub-plan is offered twice, so a full shard's doorkeeper admits it and it
// presses on the bound.
func TestBoundedPoolEviction(t *testing.T) {
	const maxEntries = 64
	pool := NewBoundedMemoryPool(maxEntries)
	g := []float64{1, 2}
	r := []float64{3, 4}
	offer := func(id plan.ID) {
		pool.PutGen(id, g, r, pool.Generation())
		pool.PutGen(id, g, r, pool.Generation())
	}
	for i := 0; i < 10*maxEntries; i++ {
		offer(testID(i))
	}
	// Per-shard enforcement makes the bound approximate; allow one extra
	// entry per shard of headroom but no unbounded growth.
	if n := pool.Len(); n > maxEntries+poolShardCount {
		t.Fatalf("bounded pool grew to %d entries (cap %d)", n, maxEntries)
	}
	probe := testID(-1)
	offer(probe)
	pg, pr := make([]float64, 2), make([]float64, 2)
	if !pool.GetGen(probe, pool.Generation(), pg, pr) || pg[1] != 2 || pr[0] != 3 {
		t.Fatal("bounded pool lost a fresh entry or corrupted it")
	}
}

// TestClockEvictionKeepsHotEntries pins the second-chance behavior: hot
// sub-plans that keep getting probed between insertions must survive a long
// stream of cold insertions. (Arbitrary-victim eviction would lose roughly
// half the hot set under this pressure.) Hot and cold sub-plans alike are
// offered twice, so a full shard's doorkeeper admits every one and each cold
// sub-plan is real eviction pressure.
func TestClockEvictionKeepsHotEntries(t *testing.T) {
	const (
		hotCount   = 24
		maxEntries = 256 // 8 per shard — far above any plausible hot-set skew
		coldPuts   = 500
	)
	pool := NewBoundedMemoryPool(maxEntries)
	g := []float64{1, 2}
	r := []float64{3, 4}
	offer := func(id plan.ID) {
		pool.PutGen(id, g, r, pool.Generation())
		pool.PutGen(id, g, r, pool.Generation())
	}
	hot := make([]plan.ID, hotCount)
	for i := range hot {
		hot[i] = testID(-1 - i)
		offer(hot[i])
	}
	for k := 0; k < coldPuts; k++ {
		// The optimizer keeps probing its hot sub-plans, so their reference
		// bits are set when the next cold admission needs a victim.
		for i, id := range hot {
			if !pool.GetGen(id, pool.Generation(), nil, nil) {
				t.Fatalf("hot sub-plan %d evicted after %d cold insertions", i, k)
			}
		}
		offer(testID(k))
	}
	for i, id := range hot {
		if !pool.GetGen(id, pool.Generation(), nil, nil) {
			t.Fatalf("hot sub-plan %d not resident after eviction pressure", i)
		}
	}
	if n := pool.Len(); n > maxEntries+poolShardCount {
		t.Fatalf("bounded pool grew to %d entries (cap %d)", n, maxEntries)
	}
	if a := pool.Admitted(); a < hotCount+coldPuts {
		t.Fatalf("admitted %d entries, want at least %d: cold pressure was not admitted", a, hotCount+coldPuts)
	}
}

// TestPoolEvictedCardNode forces the case a bounded pool creates: the root's
// representation is resident but the cardinality node's entry was evicted.
// The estimator must recompute the cardinality subtree, not degrade to the
// root's cardinality head.
func TestPoolEvictedCardNode(t *testing.T) {
	eps := benchCorpus(t, 16)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	sess := NewBatchSession(m)
	tested := 0
	for _, ep := range eps {
		if ep.CardNode == ep.Root {
			continue
		}
		wantCost, wantCard := sess.Estimate(ep)
		// A pool holding only the root: Get(root) hits and skips the whole
		// tree, Get(cardNode) misses — exactly the post-eviction shape.
		pool := NewMemoryPool()
		full := NewMemoryPool()
		sess.EstimateWithPool(ep, full)
		g, r, ok := pooledCopy(full, m, ep.Nodes[ep.Root].ID, full.Generation())
		if !ok {
			t.Fatal("root representation missing from warm pool")
		}
		pool.PutGen(ep.Nodes[ep.Root].ID, g, r, pool.Generation())
		gotCost, gotCard := sess.EstimateWithPool(ep, pool)
		if gotCost != wantCost || gotCard != wantCard {
			t.Fatalf("evicted card node degraded the estimate: (%g,%g) vs (%g,%g)",
				gotCost, gotCard, wantCost, wantCard)
		}
		tested++
	}
	if tested == 0 {
		t.Skip("no plan in corpus with CardNode != Root")
	}
}

// TestConcurrentEstimate hammers the convenience API from many goroutines;
// the session pool must hand each caller private buffers (run with -race).
func TestConcurrentEstimate(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	want := make([][2]float64, len(eps))
	for i, ep := range eps {
		c, d := m.Estimate(ep)
		want[i] = [2]float64{c, d}
	}
	pool := NewMemoryPool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (w + k) % len(eps)
				c, d := m.Estimate(eps[i])
				if c != want[i][0] || d != want[i][1] {
					t.Errorf("concurrent estimate diverged at plan %d", i)
					return
				}
				cp, dp := m.EstimateWithPool(eps[i], pool)
				if cp != want[i][0] || dp != want[i][1] {
					t.Errorf("concurrent pooled estimate diverged at plan %d", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkForwardSingle measures the per-plan Estimate hot path: the call an
// optimizer would make once per candidate plan during enumeration.
func BenchmarkForwardSingle(b *testing.B) {
	eps := benchCorpus(b, 24)
	for _, variant := range []struct {
		name string
		mod  func(*Config)
	}{
		{"pool", func(c *Config) {}},
		{"predlstm", func(c *Config) { c.Pred = PredLSTM }},
		{"repnn", func(c *Config) { c.Rep = RepNN }},
	} {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Estimate(eps[i%len(eps)])
			}
		})
	}
}

// BenchmarkForwardPooled measures EstimateWithPool against a warm
// representation memory pool (the paper's online workflow).
func BenchmarkForwardPooled(b *testing.B) {
	eps := benchCorpus(b, 24)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	pool := NewMemoryPool()
	for _, ep := range eps {
		m.EstimateWithPool(ep, pool)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateWithPool(eps[i%len(eps)], pool)
	}
	b.ReportMetric(pool.HitRate()*100, "hit%")
}

// BenchmarkPoolGetParallel measures concurrent read throughput of the
// representation memory pool: with many goroutines hammering Get, the read
// path must not serialize on an exclusive lock.
func BenchmarkPoolGetParallel(b *testing.B) {
	pool := NewMemoryPool()
	g := make([]float64, 16)
	r := make([]float64, 16)
	sigs := make([]plan.ID, 512)
	for i := range sigs {
		sigs[i] = testID(i)
		pool.PutGen(sigs[i], g, r, pool.Generation())
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		gb, rb := make([]float64, len(g)), make([]float64, len(r))
		for pb.Next() {
			n := atomic.AddUint64(&i, 1)
			pool.GetGen(sigs[n%uint64(len(sigs))], pool.Generation(), gb, rb)
		}
	})
}
