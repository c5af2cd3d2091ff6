package core

import (
	"sync"
	"testing"

	"costest/internal/feature"
)

// TestBatchSessionReuseMatchesFresh drives one batch session across varying
// batch shapes (full corpus, subsets, reversed order) and checks every
// estimate matches a fresh session's bit for bit — stale per-level state
// leaking between calls would show up here.
func TestBatchSessionReuseMatchesFresh(t *testing.T) {
	eps := benchCorpus(t, 16)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		check := func(batch []*feature.EncodedPlan) {
			got := sess.EstimateBatch(batch)
			want := NewBatchSession(m).EstimateBatch(batch)
			for i := range batch {
				if got[i] != want[i] {
					t.Fatalf("%s: reused session %+v != fresh session %+v at plan %d",
						variant.name, got[i], want[i], i)
				}
			}
		}
		check(eps)
		check(eps[:4])
		rev := make([]*feature.EncodedPlan, len(eps))
		for i := range eps {
			rev[i] = eps[len(eps)-1-i]
		}
		check(rev)
		check(eps[7:9])
		check(eps)
	}
}

// TestBatchSessionZeroAlloc asserts the tentpole property: after warm-up,
// EstimateBatch performs zero heap allocations per call across all
// architecture variants.
func TestBatchSessionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eps := benchCorpus(t, 12)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		sess.EstimateBatch(eps) // warm-up sizes every arena
		sess.EstimateBatch(eps[:5])
		allocs := testing.AllocsPerRun(100, func() {
			sess.EstimateBatch(eps)
		})
		if allocs != 0 {
			t.Errorf("%s: warm EstimateBatch allocates %.1f objects/op, want 0", variant.name, allocs)
		}
		// Smaller batches of already-seen plans must stay allocation-free too.
		allocs = testing.AllocsPerRun(100, func() {
			sess.EstimateBatch(eps[:5])
		})
		if allocs != 0 {
			t.Errorf("%s: warm sub-batch EstimateBatch allocates %.1f objects/op, want 0", variant.name, allocs)
		}
	}
}

// TestEstimateBatchWithPool checks the pooled batch path end to end: results
// must match the unpooled batch bit for bit, both on a cold pool (all misses
// + inserts) and a warm pool (subtree hits skip level rows) — pooled
// representations carry exactly the values recomputation would produce.
func TestEstimateBatchWithPool(t *testing.T) {
	eps := benchCorpus(t, 16)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		want := m.EstimateBatch(eps)
		pool := NewMemoryPool()

		cold := m.EstimateBatchWithPool(eps, pool)
		if pool.Len() == 0 {
			t.Fatalf("%s: pool empty after cold batch", variant.name)
		}
		warm := m.EstimateBatchWithPool(eps, pool)
		if pool.HitRate() == 0 {
			t.Fatalf("%s: warm batch produced no pool hits", variant.name)
		}
		for i := range eps {
			for name, got := range map[string]Estimate{"cold": cold[i], "warm": warm[i]} {
				if got != want[i] {
					t.Fatalf("%s: %s pooled batch[%d] = %+v, want %+v", variant.name, name, i, got, want[i])
				}
			}
		}
		// Pooled batch must agree with the pooled single-plan path sharing
		// the same pool.
		sess := NewBatchSession(m)
		for i, ep := range eps {
			c, d := sess.EstimateWithPool(ep, pool)
			if warm[i].Cost != c || warm[i].Card != d {
				t.Fatalf("%s: pooled batch[%d] = %+v, single-plan pooled = (%g,%g)",
					variant.name, i, warm[i], c, d)
			}
		}
	}
}

// TestEstimateBatchWithPoolEvictedCardNode forces the bounded-pool shape: a
// plan's root representation is resident but its cardinality node's entry
// was evicted. The batch path must recompute that subtree rather than
// degrade the cardinality estimate.
func TestEstimateBatchWithPoolEvictedCardNode(t *testing.T) {
	eps := benchCorpus(t, 16)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	want := m.EstimateBatch(eps)
	tested := 0
	for i, ep := range eps {
		if ep.CardNode == ep.Root {
			continue
		}
		full := NewMemoryPool()
		m.EstimateBatchWithPool(eps[i:i+1], full)
		g, r, ok := pooledCopy(full, m, ep.Nodes[ep.Root].ID, full.Generation())
		if !ok {
			t.Fatal("root representation missing from warm pool")
		}
		// A pool holding only the root: Get(root) hits, Get(cardNode)
		// misses — exactly the post-eviction shape.
		pool := NewMemoryPool()
		pool.PutGen(ep.Nodes[ep.Root].ID, g, r, pool.Generation())
		got := m.EstimateBatchWithPool(eps[i:i+1], pool)
		// Recomputing the card subtree regroups its GEMM levels, but the
		// canonical kernel order makes level grouping irrelevant to the
		// result: compare bit-exactly.
		if got[0] != want[i] {
			t.Fatalf("evicted card node degraded batch estimate: %+v vs %+v", got[0], want[i])
		}
		tested++
	}
	if tested == 0 {
		t.Skip("no plan in corpus with CardNode != Root")
	}
}

// TestBatchedTrainingConcurrentWithPooledEstimates exercises the paper's
// serving topology under the race detector: one goroutine trains a model
// while serving goroutines hammer a second model's pooled single-plan and
// batch entry points against a shared memory pool.
func TestBatchedTrainingConcurrentWithPooledEstimates(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	trainM := New(cfg, testEnc)
	serveM := New(cfg, testEnc)
	tr := NewParallelTrainer(trainM, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	pool := NewBoundedMemoryPool(256)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := 0; e < 3; e++ {
			tr.TrainEpochParallel(eps, 8, 1)
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := NewBatchSession(serveM)
			for k := 0; k < 30; k++ {
				sess.EstimateWithPool(eps[(w+k)%len(eps)], pool)
				serveM.EstimateBatchWithPool(eps, pool)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkEstimateBatch measures the steady-state batch serving path: 24
// plans per call through a warm BatchSession.
func BenchmarkEstimateBatch(b *testing.B) {
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
		sess := NewBatchSession(m)
		sess.EstimateBatch(eps)
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess.EstimateBatch(eps)
			}
		})
	}
}

// BenchmarkEstimateBatchPooled measures the pooled batch path against a warm
// representation memory pool.
func BenchmarkEstimateBatchPooled(b *testing.B) {
	eps := benchCorpus(b, 24)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	sess := NewBatchSession(m)
	pool := NewMemoryPool()
	sess.EstimateBatchWithPool(eps, pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.EstimateBatchWithPool(eps, pool)
	}
	b.ReportMetric(pool.HitRate()*100, "hit%")
}
