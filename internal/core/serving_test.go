package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"costest/internal/feature"
	"costest/internal/plan"
)

// TestSnapshotImmutableUnderTraining pins the copy-on-publish contract: a
// snapshot taken before further training must keep serving the exact weights
// it was published with, bit for bit, no matter how the live model moves.
func TestSnapshotImmutableUnderTraining(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, nil)

	snap := srv.AcquireSnapshot()
	defer srv.ReleaseSnapshot(snap)
	if snap.Version() != 1 {
		t.Fatalf("initial snapshot version = %d, want 1", snap.Version())
	}
	type est struct{ cost, card float64 }
	before := make([]est, len(eps))
	for i, ep := range eps {
		c, d := snap.Model().Estimate(ep)
		before[i] = est{c, d}
	}

	tr.TrainEpochParallel(eps, 8)

	for i, ep := range eps {
		c, d := snap.Model().Estimate(ep)
		if c != before[i].cost || d != before[i].card {
			t.Fatalf("snapshot estimate moved after training: plan %d (%g,%g) -> (%g,%g)",
				i, before[i].cost, before[i].card, c, d)
		}
	}
	liveMoved := false
	for i, ep := range eps {
		if c, d := m.Estimate(ep); c != before[i].cost || d != before[i].card {
			liveMoved = true
			break
		}
	}
	if !liveMoved {
		t.Fatal("live model did not move after a training epoch; test is vacuous")
	}

	next := srv.PublishDelta(tr.M)
	if next.Version() != 2 || srv.Version() != 2 {
		t.Fatalf("publish version = %d (server %d), want 2", next.Version(), srv.Version())
	}
	if cur := srv.AcquireSnapshot(); cur != next {
		t.Fatal("server does not serve the published snapshot")
	} else {
		srv.ReleaseSnapshot(cur)
	}
}

// TestPoolGenerations pins the pool's generation contract directly: entries
// are only served to callers of the generation that recorded them, advancing
// the generation invalidates older entries in O(1), and stale entries are
// lazily evicted (freeing their map slot and, in bounded pools, their ring
// slot) as lookups touch them.
func TestPoolGenerations(t *testing.T) {
	g := []float64{1, 2}
	r := []float64{3, 4}

	p := NewBoundedMemoryPool(testPoolBound)
	sig, sig2 := testID(1), testID(2)
	p.PutGen(sig, g, r, 1)
	if !p.GetGen(sig, 1, nil, nil) {
		t.Fatal("same-generation lookup missed")
	}
	// A caller pinned to a different generation must never see the entry —
	// in either direction (old entry/new caller, new entry/old caller).
	if p.GetGen(sig, 2, nil, nil) {
		t.Fatal("generation-1 entry served to a generation-2 caller")
	}
	p.PutGen(sig2, g, r, 2)
	if p.GetGen(sig2, 1, nil, nil) {
		t.Fatal("generation-2 entry served to a generation-1 caller")
	}
	if p.StaleRate() == 0 {
		t.Fatal("generation mismatches not counted as stale")
	}

	// Advancing the pool generation lazily evicts superseded entries.
	p.SetGeneration(2)
	if p.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", p.Generation())
	}
	p.SetGeneration(1) // monotonic: must not move backwards
	if p.Generation() != 2 {
		t.Fatalf("generation moved backwards to %d", p.Generation())
	}
	before := p.Len()
	if p.GetGen(sig, p.Generation(), nil, nil) { // current-generation lookup
		t.Fatal("stale entry served after SetGeneration")
	}
	if p.Len() != before-1 {
		t.Fatalf("stale entry not evicted: Len %d -> %d", before, p.Len())
	}
	// Re-inserting under the current generation serves again.
	p.PutGen(sig, g, r, p.Generation())
	if !p.GetGen(sig, p.Generation(), nil, nil) {
		t.Fatal("refreshed entry missed at current generation")
	}

	// Bounded pools must reclaim the ring slots of generation-evicted
	// entries: fill a pool across a generation swap (each sub-plan offered
	// twice, so a full shard's doorkeeper admits it too), touch everything
	// (lazy eviction),
	// then refill under the new generation. The refill is a single offer —
	// every sub-plan has been sighted before — and each fresh insert must
	// be immediately retrievable (its ring slot comes from a dead entry, not
	// past the bound) and residency must respect the bound.
	// Assertions avoid assuming which sub-plans share a shard.
	bp := NewBoundedMemoryPool(poolShardCount) // 1 entry per shard
	sigs := []plan.ID{testID(10), testID(11), testID(12), testID(13), testID(14), testID(15), testID(16), testID(17)}
	for _, s := range sigs {
		bp.PutGen(s, g, r, 1)
		bp.PutGen(s, g, r, 1)
	}
	if bp.Len() == 0 {
		t.Fatal("bounded pool admitted nothing")
	}
	bp.SetGeneration(2)
	for _, s := range sigs {
		bp.GetGen(s, 2, nil, nil) // touch: lazily evicts every generation-1 entry
	}
	if n := bp.Len(); n != 0 {
		t.Fatalf("bounded pool kept %d stale entries after touches", n)
	}
	for _, s := range sigs {
		bp.PutGen(s, g, r, 2)
		if !bp.GetGen(s, 2, nil, nil) {
			t.Fatalf("entry %x missing immediately after ring-slot reuse", s)
		}
	}
	if n := bp.Len(); n == 0 || n > len(sigs) {
		t.Fatalf("bounded pool resident count %d after refill, want 1..%d", n, len(sigs))
	}
}

// TestServerServesAcrossPublishes drives the sequential hot-swap workflow:
// serve, retrain, publish, serve again — every response must carry the
// version that produced it and match that version's snapshot bit for bit,
// through both the single-plan and batch paths, with pooled entries never
// crossing the swap, and the pool refilling lazily after each publish.
func TestServerServesAcrossPublishes(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, NewBoundedMemoryPool(512))

	for round := 0; round < 3; round++ {
		snap := srv.AcquireSnapshot()
		want := uint64(round + 1)
		if snap.Version() != want {
			t.Fatalf("round %d: serving version %d, want %d", round, snap.Version(), want)
		}
		ref := NewBatchSession(snap.Model())
		for i, ep := range eps {
			c, d, v := serveOne(srv, ep)
			if v != want {
				t.Fatalf("round %d: Estimate served version %d", round, v)
			}
			rc, rd := ref.Estimate(ep)
			if c != rc || d != rd {
				t.Fatalf("round %d plan %d: served (%g,%g), snapshot replay (%g,%g)", round, i, c, d, rc, rd)
			}
		}
		batch, v := srv.EstimateBatch(eps, 2)
		if v != want {
			t.Fatalf("round %d: EstimateBatch served version %d", round, v)
		}
		for i, ep := range eps {
			rc, rd := ref.Estimate(ep)
			if batch[i].Cost != rc || batch[i].Card != rd {
				t.Fatalf("round %d plan %d: batch served %+v, snapshot replay (%g,%g)", round, i, batch[i], rc, rd)
			}
		}
		srv.ReleaseSnapshot(snap)
		tr.TrainEpochParallel(eps, 8)
		srv.PublishDelta(tr.M)

		// The pool refills lazily: the publish left every entry stale, and
		// one foreground serve of a plan makes its root resident at the new
		// generation, with the bits of the unpooled snapshot replay.
		c, d, v := serveOne(srv, eps[0])
		root := eps[0].Nodes[eps[0].Root].ID
		if !srv.Pool().GetGen(root, v, nil, nil) {
			t.Fatalf("round %d: root not resident at generation %d after one serve", round, v)
		}
		snap = srv.AcquireSnapshot()
		rc, rd := NewBatchSession(snap.Model()).Estimate(eps[0])
		srv.ReleaseSnapshot(snap)
		if v != want+1 || c != rc || d != rd {
			t.Fatalf("round %d: first serve after publish (%g,%g) at v%d, snapshot replay (%g,%g) at v%d", round, c, d, v, rc, rd, want+1)
		}
	}
	if srv.Pool().HitRate() == 0 {
		t.Fatal("pooled serving produced no hits within a generation")
	}
	if srv.Pool().StaleRate() == 0 {
		t.Fatal("hot swaps produced no stale lookups; invalidation untested")
	}
}

// servedObs is one served estimate with the snapshot version that produced
// it, for post-hoc replay.
type servedObs struct {
	plan    int
	version uint64
	cost    float64
	card    float64
}

// serveOne serves ep as a batch of one through EstimateBatchInto, the path
// the daemon's scheduler takes, returning the estimate and the version of the
// snapshot that answered.
func serveOne(srv *Server, ep *feature.EncodedPlan) (cost, card float64, version uint64) {
	out := make([]Estimate, 1)
	out, version, _, _ = srv.EstimateBatchInto([]*feature.EncodedPlan{ep}, out)
	return out[0].Cost, out[0].Card, version
}

// BenchmarkServerEstimate measures steady-state pooled serving of one plan
// through the Server indirection (snapshot resolution + session checkout +
// pooled forward), the way the scheduler serves a one-plan request: one
// EstimateBatchInto call with reused plan and result buffers — the hot-swap
// counterpart of BenchmarkForwardPooled.
func BenchmarkServerEstimate(b *testing.B) {
	eps := benchCorpus(b, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	srv := NewServer(m, NewBoundedMemoryPool(testPoolBound))
	one, out := make([]*feature.EncodedPlan, 1), make([]Estimate, 1)
	for _, ep := range eps {
		one[0] = ep
		srv.EstimateBatchInto(one, out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = eps[i%len(eps)]
		srv.EstimateBatchInto(one, out)
	}
	b.ReportMetric(srv.Pool().HitRate()*100, "hit%")
}

// BenchmarkServerHotSwap measures serving with a publish every 64 batches:
// the steady-state cost of living through weight swaps, including session
// rebinds and the stale-lookup transient after each generation bump.
func BenchmarkServerHotSwap(b *testing.B) {
	eps := benchCorpus(b, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	srv := NewServer(m, NewBoundedMemoryPool(512))
	srv.EstimateBatch(eps, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			srv.PublishDelta(m)
		}
		srv.EstimateBatch(eps, 1)
	}
	b.ReportMetric(srv.Pool().StaleRate()*100, "stale%")
	b.ReportMetric(srv.Pool().HitRate()*100, "hit%")
}

// fullCopy deep-copies m's weights and normalizers into a fresh model: the
// reference every published snapshot must match bit for bit.
func fullCopy(m *Model) *Model {
	c := New(m.Cfg, m.Enc)
	for i, p := range m.PS.Params() {
		copy(c.PS.Params()[i].Value, p.Value)
	}
	c.CostNorm, c.CardNorm = m.CostNorm, m.CardNorm
	return c
}

// LastDeltaCopied reports how many parameters the most recent publication
// copied (the rest were already current in the reused buffer set) — the
// count the delta-publication tests check.
func (srv *Server) LastDeltaCopied() int {
	srv.pubMu.Lock()
	defer srv.pubMu.Unlock()
	return srv.delta.lastCopied
}

// TestPublishDeltaBitIdentical pins the publication contract on the
// sequential path: across rounds of training, every published snapshot's
// parameters must be bit-identical to a full copy taken at the same point,
// normalizers included — and rounds that trained nothing must copy nothing.
func TestPublishDeltaBitIdentical(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, NewBoundedMemoryPool(512))

	for round := 0; round < 5; round++ {
		tr.TrainEpochParallel(eps, 8)
		snap := srv.PublishDelta(tr.M)
		full := fullCopy(m)
		compareWeights(t, "delta vs full copy", snap.Model(), full, 0)
		if snap.Model().CostNorm != m.CostNorm || snap.Model().CardNorm != m.CardNorm {
			t.Fatalf("round %d: delta snapshot normalizers diverged", round)
		}
		if srv.Version() != snap.Version() || srv.cur.Load() != snap {
			t.Fatalf("round %d: server does not serve the delta snapshot", round)
		}
		// Serving through the delta snapshot matches a single-threaded
		// replay of the full copy.
		ref := NewBatchSession(full)
		for i, ep := range eps {
			c, d, v := serveOne(srv, ep)
			rc, rd := ref.Estimate(ep)
			if v != snap.Version() || c != rc || d != rd {
				t.Fatalf("round %d plan %d: delta-served (%g,%g) at v%d, full-copy replay (%g,%g)",
					round, i, c, d, v, rc, rd)
			}
		}
	}

	// A publish with no intervening training copies zero parameters: the
	// reused buffer set is already current.
	trained := srv.LastDeltaCopied()
	if trained == 0 {
		t.Fatal("delta publish after training copied no parameters; tracking is broken")
	}
	srv.PublishDelta(tr.M)
	srv.PublishDelta(tr.M) // second clean publish reuses an in-rotation slot
	if n := srv.LastDeltaCopied(); n != 0 {
		t.Fatalf("clean delta publish copied %d params, want 0", n)
	}
}

// TestPublishDeltaRefusesNonFinite: PublishDelta is the one way weights
// reach serving, so it must itself refuse weights holding a NaN — no
// snapshot, no pool-generation bump, no hook call, one counted refusal per
// attempt — while the server keeps answering finite estimates from version
// 1. Here a trainer publishes from Fit's epoch callback, with no gate in
// front of the publication.
func TestPublishDeltaRefusesNonFinite(t *testing.T) {
	eps := benchCorpus(t, 24)
	train, valid := eps[:20], eps[20:]
	m := New(TestConfig(), testEnc)
	pt := NewParallelTrainer(m, 1)
	defer pt.Close()
	pool := NewBoundedMemoryPool(512)
	srv := NewServer(m, pool)
	hooked := 0
	srv.SetPublishHook(func(*Model, uint64) (uint64, uint64) { hooked++; return 0, 0 })

	m.PS.Params()[0].Value[0] = math.NaN()
	m.PS.MarkAllUpdated()
	hist := pt.Fit(train, valid, 2, 8, 1, func(st EpochStats) {
		if v := srv.PublishDelta(m).Version(); v != 1 {
			t.Fatalf("epoch %d: NaN weights published as version %d", st.Epoch, v)
		}
	})

	if v, g := srv.Version(), pool.Generation(); v != 1 || g != 1 {
		t.Fatalf("refused publishes moved the server to version %d, pool generation %d; want 1, 1", v, g)
	}
	if hooked != 0 {
		t.Fatalf("publish hook called %d times for refused publications", hooked)
	}
	if n := srv.PublishesRefused(); n != uint64(len(hist)) {
		t.Fatalf("PublishesRefused = %d, want %d (one per epoch)", n, len(hist))
	}
	for i, ep := range valid {
		if c, d, _ := serveOne(srv, ep); math.IsNaN(c) || math.IsNaN(d) {
			t.Fatalf("plan %d served non-finite (%g, %g) after refused publishes", i, c, d)
		}
	}
}

// TestPublishDeltaLabelsCoordinates pins where a snapshot's replication
// coordinates come from: the publish hook's answer, stored before the
// snapshot is installed. Readers acquire snapshots while publishes run, and
// every snapshot they see after NewServer's unlabeled version 1 already
// carries exactly the pair the hook returned for its version — none is ever
// observable unlabeled. A refused non-finite publication calls no hook and
// labels nothing. Run it under -race -count=10.
func TestPublishDeltaLabelsCoordinates(t *testing.T) {
	m := New(TestConfig(), testEnc)
	srv := NewServer(m, nil)
	hooked := 0
	srv.SetPublishHook(func(_ *Model, version uint64) (uint64, uint64) {
		if v := srv.Version(); v != version-1 {
			t.Errorf("hook for version %d ran with version %d already served", version, v)
		}
		hooked++
		return 7, version + 100
	})

	const publishes = 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	var seen [3]atomic.Int64
	for r := range seen {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				snap := srv.AcquireSnapshot()
				ep, gen := snap.Coordinates()
				want := [2]uint64{7, snap.Version() + 100}
				if snap.Version() == 1 {
					want = [2]uint64{}
				}
				srv.ReleaseSnapshot(snap)
				if got := [2]uint64{ep, gen}; got != want {
					t.Errorf("reader acquired v%d labeled %v, want %v", snap.Version(), got, want)
					return
				}
				seen[r].Add(1)
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	for i := 0; i < publishes; i++ {
		m.PS.MarkAllUpdated()
		if ep, gen := srv.PublishDelta(m).Coordinates(); ep != 7 || gen != uint64(i+2)+100 {
			t.Fatalf("publish %d returned a snapshot labeled (%d, %d)", i, ep, gen)
		}
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	for r := range seen {
		if seen[r].Load() == 0 {
			t.Fatalf("reader %d acquired nothing; the test is vacuous", r)
		}
	}
	if hooked != publishes {
		t.Fatalf("hook called %d times for %d publishes", hooked, publishes)
	}

	m.PS.Params()[0].Value[0] = math.NaN()
	m.PS.MarkAllUpdated()
	snap := srv.PublishDelta(m)
	if ep, gen := snap.Coordinates(); snap.Version() != publishes+1 || ep != 7 || gen != publishes+101 {
		t.Fatalf("refused publish returned v%d labeled (%d, %d), want the served v%d labeled (7, %d)",
			snap.Version(), ep, gen, publishes+1, publishes+101)
	}
	if hooked != publishes {
		t.Fatalf("refused publish called the hook (%d calls for %d publishes)", hooked, publishes)
	}
}

// TestPublishDeltaReusesBuffers pins the double-buffer rotation: once two
// snapshots exist and the older one has drained, the next publish reuses its
// buffer set instead of allocating a third. NewServer's version 1 is the
// first buffer set of the rotation.
func TestPublishDeltaReusesBuffers(t *testing.T) {
	eps := benchCorpus(t, 8)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, nil)

	s0 := srv.cur.Load()         // slot A, NewServer's version 1
	s1 := srv.PublishDelta(tr.M) // fresh slot B (A still serving at publish time)
	tr.TrainEpochParallel(eps, 8)
	s2 := srv.PublishDelta(tr.M) // A retired and drained -> reused
	tr.TrainEpochParallel(eps, 8)
	s3 := srv.PublishDelta(tr.M) // B retired and drained -> reused
	if s1.model == s2.model {
		t.Fatal("consecutive snapshots share a live buffer set")
	}
	if s2.model != s0.model || s3.model != s1.model {
		t.Fatal("publishes did not reuse the drained slots")
	}
	// The recycled snapshot must carry the current weights bit for bit.
	compareWeights(t, "recycled slot vs full copy", s3.Model(), fullCopy(m), 0)

	// A held snapshot's buffers leave the rotation while it is held.
	tr.TrainEpochParallel(eps, 8)
	srv.PublishDelta(tr.M)
	s4 := srv.AcquireSnapshot()
	defer srv.ReleaseSnapshot(s4)
	tr.TrainEpochParallel(eps, 8)
	s5 := srv.PublishDelta(tr.M)
	tr.TrainEpochParallel(eps, 8)
	s6 := srv.PublishDelta(tr.M)
	if s6.model == s4.model {
		t.Fatal("held snapshot's buffers were recycled")
	}
	want := []struct{ c, d float64 }{}
	for _, ep := range eps {
		c, d := s4.Model().Estimate(ep)
		want = append(want, struct{ c, d float64 }{c, d})
	}
	tr.TrainEpochParallel(eps, 8)
	srv.PublishDelta(tr.M)
	srv.PublishDelta(tr.M)
	for i, ep := range eps {
		c, d := s4.Model().Estimate(ep)
		if c != want[i].c || d != want[i].d {
			t.Fatalf("held snapshot estimates moved after later delta publishes (plan %d)", i)
		}
	}
	_ = s5
}

// TestSnapshotPinnedAcrossDeltaPublishes pins AcquireSnapshot's contract: a
// snapshot held by reference keeps serving the exact weights it was
// published with, no matter how many delta publishes (and buffer recycles)
// happen before it is released.
func TestSnapshotPinnedAcrossDeltaPublishes(t *testing.T) {
	eps := benchCorpus(t, 10)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, nil)
	tr.TrainEpochParallel(eps, 8)
	srv.PublishDelta(tr.M)

	held := srv.AcquireSnapshot()
	defer srv.ReleaseSnapshot(held)
	type est struct{ cost, card float64 }
	before := make([]est, len(eps))
	for i, ep := range eps {
		c, d := held.Model().Estimate(ep)
		before[i] = est{c, d}
	}
	for round := 0; round < 4; round++ {
		tr.TrainEpochParallel(eps, 8)
		srv.PublishDelta(tr.M)
	}
	for i, ep := range eps {
		c, d := held.Model().Estimate(ep)
		if c != before[i].cost || d != before[i].card {
			t.Fatalf("held snapshot estimate moved: plan %d (%g,%g) -> (%g,%g)",
				i, before[i].cost, before[i].card, c, d)
		}
	}
}

// TestPublishDeltaSingleTaskSkipsCleanHead exercises the natural sparse
// case: a single-task cost model never gradients its cardinality head, so
// after the first sync those parameters are never copied again — the delta
// path provably does less work than a full copy.
func TestPublishDeltaSingleTaskSkipsCleanHead(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	cfg.Target = TargetCost
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, nil)

	tr.TrainEpochParallel(eps, 8)
	srv.PublishDelta(tr.M)
	first := srv.LastDeltaCopied()
	tr.TrainEpochParallel(eps, 8)
	tr.TrainEpochParallel(eps, 8)
	srv.PublishDelta(tr.M) // recycled version-1 slot: delta from here on
	tr.TrainEpochParallel(eps, 8)
	srv.PublishDelta(tr.M)
	steady := srv.LastDeltaCopied()
	total := len(m.PS.Params())
	if first != total {
		t.Fatalf("first sync copied %d/%d params, want all", first, total)
	}
	if steady >= total {
		t.Fatalf("steady-state delta copied all %d params; the clean card head should be skipped", steady)
	}
	// The skipped parameters are exactly the never-trained cardinality head.
	snap := srv.AcquireSnapshot()
	defer srv.ReleaseSnapshot(snap)
	compareWeights(t, "single-task delta", snap.Model(), fullCopy(m), 0)
}

// TestServerDeltaHotSwapConcurrentBitIdentical is the acceptance gate for
// the hot-swap runtime, meant to run under -race: the trainer retrains and
// publishes after every epoch — rotating and recycling snapshot buffers —
// while serving goroutines hammer the pooled single-plan and batch paths. At
// every publish the trainer also takes a private full copy; every served
// estimate is replayed single-threaded against the full copy of the version
// that served it and must match bit for bit. That fails if a publish ever
// tears weights mid-request (a recycle racing an in-flight request, which the
// ref-count protocol must prevent), and fails if any pool entry recorded
// under generation N is consumed by a request serving generation N±1
// (representations are weights-dependent, so cross-generation reuse perturbs
// the bits). The trainer waits for every server to reach each published
// version before training on — on a single-core box the scheduler could
// otherwise run one side to completion, leaving the interleavings untested.
func TestServerDeltaHotSwapConcurrentBitIdentical(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, NewBoundedMemoryPool(256))

	const epochs = 6
	const servers = 3

	type est struct{ cost, card float64 }
	var mu sync.Mutex
	refs := map[uint64][]est{}
	snapRef := func(v uint64) { // full-copy reference, trainer goroutine
		ref := NewBatchSession(fullCopy(m))
		es := make([]est, len(eps))
		for i, ep := range eps {
			c, d := ref.Estimate(ep)
			es[i] = est{c, d}
		}
		mu.Lock()
		refs[v] = es
		mu.Unlock()
	}
	snapRef(1)

	var seen [servers]atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // trainer: retrain, delta-publish, reference-copy
		defer wg.Done()
		defer close(done)
		for e := 0; e < epochs; e++ {
			tr.TrainEpochParallel(eps, 8)
			snap := srv.PublishDelta(tr.M)
			snapRef(snap.Version())
			for w := 0; w < servers; w++ {
				for seen[w].Load() < snap.Version() {
					runtime.Gosched()
				}
			}
		}
	}()

	obs := make([][]servedObs, servers)
	for w := 0; w < servers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []servedObs
			for k := 0; ; k++ {
				i := (w*5 + k) % len(eps)
				c, d, v := serveOne(srv, eps[i])
				local = append(local, servedObs{plan: i, version: v, cost: c, card: d})
				ests, bv := srv.EstimateBatch(eps, 2)
				for j, e := range ests {
					local = append(local, servedObs{plan: j, version: bv, cost: e.Cost, card: e.Card})
				}
				if bv > seen[w].Load() {
					seen[w].Store(bv)
				}
				select {
				case <-done:
					obs[w] = local
					return
				default:
				}
			}
		}(w)
	}
	wg.Wait()

	served := 0
	versions := map[uint64]int{}
	for w := range obs {
		for _, o := range obs[w] {
			ref, known := refs[o.version]
			if !known {
				t.Fatalf("served version %d was never published", o.version)
			}
			if o.cost != ref[o.plan].cost || o.card != ref[o.plan].card {
				t.Fatalf("version %d plan %d: delta-served (%g,%g), full-copy replay (%g,%g)",
					o.version, o.plan, o.cost, o.card, ref[o.plan].cost, ref[o.plan].card)
			}
			served++
			versions[o.version]++
		}
	}
	if served == 0 {
		t.Fatal("no estimates served")
	}
	if len(versions) != epochs+1 {
		t.Fatalf("served %d distinct versions, want %d", len(versions), epochs+1)
	}
	t.Logf("replayed %d served estimates across %d versions (counts: %v); pool hit %.0f%%, stale %.1f%%",
		served, len(versions), versions, srv.Pool().HitRate()*100, srv.Pool().StaleRate()*100)
}

// BenchmarkPublishDelta measures publication at default model dimensions.
// clean is the
// steady-state floor — nothing trained between publishes, so the reused
// buffer set is already current and zero parameters are copied; afterEpoch
// pays one full training epoch's dirty set (at epoch cadence every
// parameter moves, so it bounds the delta path's overhead from above).
func BenchmarkPublishDelta(b *testing.B) {
	eps := benchCorpus(b, 4)
	cfg := DefaultConfig()

	b.Run("clean", func(b *testing.B) {
		m := New(cfg, testEnc)
		tr := NewParallelTrainer(m, 1)
		defer tr.Close()
		tr.FitNormalizers(eps)
		srv := NewServer(m, NewBoundedMemoryPool(4096))
		srv.PublishDelta(tr.M)
		srv.PublishDelta(tr.M)
		srv.PublishDelta(tr.M) // rotation warm: both slots synced
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.PublishDelta(m)
		}
	})
	b.Run("afterEpoch", func(b *testing.B) {
		m := New(cfg, testEnc)
		tr := NewParallelTrainer(m, 1)
		defer tr.Close()
		tr.FitNormalizers(eps)
		srv := NewServer(m, NewBoundedMemoryPool(4096))
		srv.PublishDelta(tr.M)
		srv.PublishDelta(tr.M)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr.TrainEpochParallel(eps, 4)
			b.StartTimer()
			srv.PublishDelta(m)
		}
	})
}

// TestSnapshotDrainStats pins the retired-slot drain-list metric: steady
// double-buffered publication keeps at most one retiree waiting, while
// a request held in flight on an old version makes its slot unreclaimable
// and pushes the high water up — exactly the symptom the metric exists to
// surface.
func TestSnapshotDrainStats(t *testing.T) {
	eps := benchCorpus(t, 8)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, nil)

	if st := srv.SnapshotDrainStats(); st.Retired != 0 || st.RetiredHighWater != 0 {
		t.Fatalf("fresh server drain stats = %+v, want zeros", st)
	}

	step := func() {
		tr.TrainEpochParallel(eps, 4)
		srv.PublishDelta(tr.M)
	}
	step() // v2: retires v1
	if st := srv.SnapshotDrainStats(); st.Retired != 1 || st.RetiredHighWater != 1 {
		t.Fatalf("after first retirement: %+v, want {1 1}", st)
	}
	step() // v3: v1's slot is reclaimed, v2 retires — steady double buffering
	if st := srv.SnapshotDrainStats(); st.Retired != 1 || st.RetiredHighWater != 1 {
		t.Fatalf("steady-state drain stats: %+v, want {1 1}", st)
	}

	// A request stuck mid-flight on the current version keeps its slot from
	// recycling: the next two publishes stack retirees and raise the mark.
	held := srv.acquire()
	step() // retires held (refs > 0: kept on the list)
	step() // held still referenced: a second retiree joins it
	if st := srv.SnapshotDrainStats(); st.Retired < 2 || st.RetiredHighWater < 2 {
		t.Fatalf("stuck request did not raise the drain high water: %+v", st)
	}
	srv.release(held)
	hw := srv.SnapshotDrainStats().RetiredHighWater
	step()
	step()
	// The released slot re-enters the rotation (one extra buffer set now
	// circulates), so the list stabilizes — further publishes must not keep
	// pushing the mark up.
	if st := srv.SnapshotDrainStats(); st.Retired > hw || st.RetiredHighWater != hw {
		t.Fatalf("drain list kept growing after release: %+v (high water was %d)", st, hw)
	}
}

// TestEstimateBatchIntoReleasesOnPanic: EstimateBatchInto holds the current
// snapshot for the call alone, a panicking batch included. The serving
// scheduler recovers such a panic and serves on, so a hold leaked by it would
// keep that snapshot's buffers out of the rotation for good and push the
// drain list past steady double buffering.
func TestEstimateBatchIntoReleasesOnPanic(t *testing.T) {
	eps := benchCorpus(t, 8)
	m := New(TestConfig(), testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	srv := NewServer(m, nil)

	poison := []*feature.EncodedPlan{{Nodes: make([]feature.EncodedNode, 1), Root: 7}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("poisoned batch did not panic")
			}
		}()
		srv.EstimateBatchInto(poison, make([]Estimate, 1))
	}()
	for range 3 {
		tr.TrainEpochParallel(eps, 4)
		srv.PublishDelta(tr.M)
	}
	if st := srv.SnapshotDrainStats(); st.Retired != 1 || st.RetiredHighWater != 1 {
		t.Fatalf("drain stats after a panicking batch: %+v, want steady double buffering {1 1}", st)
	}
}
