package core

import (
	"math"
	"sync"
	"testing"
)

// compareWeights asserts every parameter of a and b agrees within relative
// tolerance tol; tol == 0 demands bit-exact equality.
func compareWeights(t *testing.T, label string, a, b *Model, tol float64) {
	t.Helper()
	pa, pb := a.PS.Params(), b.PS.Params()
	for p := range pa {
		va, vb := pa[p].Value, pb[p].Value
		for i := range va {
			if tol == 0 {
				if va[i] != vb[i] {
					t.Fatalf("%s: %s value[%d] = %g vs %g (want bit-identical)",
						label, pa[p].Name, i, va[i], vb[i])
				}
				continue
			}
			if math.Abs(va[i]-vb[i]) > tol*math.Max(1, math.Abs(va[i])) {
				t.Fatalf("%s: %s value[%d] = %g vs %g (tol %g)",
					label, pa[p].Name, i, va[i], vb[i], tol)
			}
		}
	}
}

// TestTrainEpochParallelMatchesSequential is the shard-parity gate: for
// every architecture variant, weights trained with 3 shards must match the
// one-shard (sequential) result to 1e-6 relative after two epochs — the
// shard split only reassociates the per-parameter gradient sums.
func TestTrainEpochParallelMatchesSequential(t *testing.T) {
	eps := benchCorpus(t, 24)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		mSeq := New(cfg, testEnc)
		mPar := New(cfg, testEnc) // identical seed → identical weights
		seq := NewParallelTrainer(mSeq, 1)
		par := NewParallelTrainer(mPar, 3)
		seq.FitNormalizers(eps)
		par.FitNormalizers(eps)

		for e := 0; e < 2; e++ {
			lossSeq := seq.TrainEpochParallel(eps, 8, 1)
			lossPar := par.TrainEpochParallel(eps, 8, 2)
			if math.Abs(lossSeq-lossPar) > 1e-6*math.Max(1, math.Abs(lossSeq)) {
				t.Errorf("%s epoch %d: loss %g (1 shard) vs %g (3 shards)",
					variant.name, e, lossSeq, lossPar)
			}
		}
		compareWeights(t, variant.name, mSeq, mPar, 1e-6)
		seq.Close()
		par.Close()
	}
}

// TestTrainEpochParallelWorkerCountInvariant pins the determinism contract:
// with a fixed shard count, the workers knob only caps concurrency — weights
// after training must be bit-identical whether shards execute one at a time
// or all at once.
func TestTrainEpochParallelWorkerCountInvariant(t *testing.T) {
	eps := benchCorpus(t, 24)
	cfg := TestConfig()
	models := make([]*Model, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		m := New(cfg, testEnc)
		pt := NewParallelTrainer(m, 4)
		pt.FitNormalizers(eps)
		for e := 0; e < 2; e++ {
			pt.TrainEpochParallel(eps, 8, workers)
		}
		pt.Close()
		models = append(models, m)
	}
	compareWeights(t, "workers 1 vs 2", models[0], models[1], 0)
	compareWeights(t, "workers 1 vs 4", models[0], models[2], 0)
}

// TestManyShardReductionDeterministic holds the ordered reduction to its
// contracts at a shard count far above the 3-4 shard tests: with 12 active
// shards, worker-count invariance holds bit-exactly (the reduction order is
// a pure function of the active shard count, never of scheduling), and the
// result agrees with one-shard training to the established cross-shard
// reassociation tolerance.
func TestManyShardReductionDeterministic(t *testing.T) {
	eps := benchCorpus(t, 24)
	cfg := TestConfig()
	const shards = 12 // chunk 2 over the 24-sample batch
	models := make([]*Model, 0, 3)
	for _, workers := range []int{1, 3, shards} {
		m := New(cfg, testEnc)
		pt := NewParallelTrainer(m, shards)
		pt.FitNormalizers(eps)
		for e := 0; e < 2; e++ {
			// One batch spanning every sample => every shard is active on
			// every step.
			pt.TrainEpochParallel(eps, len(eps), workers)
		}
		pt.Close()
		models = append(models, m)
	}
	compareWeights(t, "12 shards, workers 1 vs 3", models[0], models[1], 0)
	compareWeights(t, "12 shards, workers 1 vs 12", models[0], models[2], 0)

	mSeq := New(cfg, testEnc)
	seq := NewParallelTrainer(mSeq, 1)
	defer seq.Close()
	seq.FitNormalizers(eps)
	for e := 0; e < 2; e++ {
		seq.TrainEpochParallel(eps, len(eps), 1)
	}
	compareWeights(t, "12 shards vs 1 shard", mSeq, models[0], 1e-6)
}

// TestTrainEpochParallelReducesLoss trains end to end through the parallel
// runtime and checks learning actually happens (reduction + optimizer
// wiring, not just gradient math).
func TestTrainEpochParallelReducesLoss(t *testing.T) {
	eps := labeledPlans(t, 404, 60, false)
	train := eps[:len(eps)*8/10]
	cfg := TestConfig()
	m := New(cfg, testEnc)
	pt := NewParallelTrainer(m, 2)
	defer pt.Close()
	pt.FitNormalizers(train)
	first := pt.TrainEpochParallel(train, 16, 2)
	var last float64
	for e := 0; e < 11; e++ {
		last = pt.TrainEpochParallel(train, 16, 2)
	}
	if last >= first {
		t.Fatalf("parallel training loss did not decrease: %g -> %g", first, last)
	}
}

// TestTrainEpochParallelZeroAlloc asserts the warm-path allocation contract
// for every architecture variant: after the worker arenas have seen the
// epoch's shapes, a full parallel epoch — shuffle, shard dispatch,
// forward/backward in every worker, reduction, clip, Adam — performs zero
// heap allocations.
func TestTrainEpochParallelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eps := benchCorpus(t, 24)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		pt := NewParallelTrainer(m, 2)
		pt.FitNormalizers(eps)
		pt.Warmup(eps) // sizes every worker arena for any shard of this corpus
		pt.TrainEpochParallel(eps, 8, 2)
		allocs := testing.AllocsPerRun(10, func() {
			pt.TrainEpochParallel(eps, 8, 2)
		})
		pt.Close()
		if allocs != 0 {
			t.Errorf("%s: warm TrainEpochParallel allocates %.1f objects/op, want 0", variant.name, allocs)
		}
	}
}

// TestParallelTrainingConcurrentServingAndPublish is the -race stress for
// the PR 3 + PR 4 composition: the data-parallel trainer retrains the live
// model (workers mutate private gradients, read shared weights) and
// publishes snapshots between epochs, while serving goroutines hammer the
// server's pooled single-plan and batch paths throughout. Every served
// estimate must belong to a published version; the race detector enforces
// that worker reads never overlap optimizer or publish writes.
func TestParallelTrainingConcurrentServingAndPublish(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	pt := NewParallelTrainer(m, 3)
	defer pt.Close()
	pt.FitNormalizers(eps)
	srv := NewServer(m, NewBoundedMemoryPool(256))
	srv.EnablePrewarm(4) // background replays join the race coverage

	const epochs = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for e := 0; e < epochs; e++ {
			pt.TrainEpochParallel(eps, 8, 2)
			srv.PublishDelta(pt.M)
		}
	}()
	var maxV sync.Map
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				_, _, v := srv.Estimate(eps[(w+k)%len(eps)])
				if v == 0 {
					panic("unversioned estimate")
				}
				ests, bv := srv.EstimateBatch(eps, 2)
				if len(ests) != len(eps) {
					panic("short batch")
				}
				maxV.Store(w, bv)
				select {
				case <-done:
					return
				default:
				}
			}
		}(w)
	}
	wg.Wait()
	if got := srv.Version(); got != epochs+1 {
		t.Fatalf("server version %d after %d publishes, want %d", got, epochs, epochs+1)
	}
}

// BenchmarkTrainEpochParallel measures one training epoch (64 samples, batch
// 16). shards1 is plain batched training (one worker, one gradient copy);
// shards2 adds the second worker and the ordered two-way reduction — with
// idle cores the shard forwards/backwards overlap, without them the delta is
// the pure reduction overhead.
func BenchmarkTrainEpochParallel(b *testing.B) {
	eps := benchCorpus(b, 64)
	for _, shards := range []int{1, 2} {
		cfg := TestConfig()
		m := New(cfg, testEnc)
		pt := NewParallelTrainer(m, shards)
		pt.FitNormalizers(eps)
		pt.Warmup(eps)
		pt.TrainEpochParallel(eps, 16, 0)
		b.Run(map[int]string{1: "shards1", 2: "shards2"}[shards], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt.TrainEpochParallel(eps, 16, 0)
			}
		})
		pt.Close()
	}
}

// TestFitParallelMatchesSequentialFit pins the Fit acceptance gate: every
// shard count consumes the same shuffle stream, so per-epoch training losses
// and validation q-errors of a 2-shard Fit must match the one-shard
// (sequential) Fit to 1e-6 relative — the shard split reassociates
// per-parameter gradient sums, nothing else.
func TestFitParallelMatchesSequentialFit(t *testing.T) {
	eps := benchCorpus(t, 30)
	train, valid := eps[:24], eps[24:]
	cfg := TestConfig()
	mSeq := New(cfg, testEnc)
	mPar := New(cfg, testEnc)
	seq := NewParallelTrainer(mSeq, 1)
	defer seq.Close()
	par := NewParallelTrainer(mPar, 2)
	defer par.Close()

	hSeq := seq.Fit(train, valid, 4, 8, 1, nil)
	hPar := par.Fit(train, valid, 4, 8, 2, nil)
	if len(hSeq) != len(hPar) {
		t.Fatalf("history lengths differ: %d vs %d", len(hSeq), len(hPar))
	}
	close1 := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for e := range hSeq {
		s, p := hSeq[e], hPar[e]
		if !close1(s.TrainLoss, p.TrainLoss) {
			t.Errorf("epoch %d: train loss %g (1 shard) vs %g (2 shards)", e, s.TrainLoss, p.TrainLoss)
		}
		if !close1(s.ValidCost, p.ValidCost) || !close1(s.ValidCard, p.ValidCard) {
			t.Errorf("epoch %d: validation (%g,%g) vs (%g,%g)", e, s.ValidCost, s.ValidCard, p.ValidCost, p.ValidCard)
		}
	}
	compareWeights(t, "Fit 1 vs 2 shards", mSeq, mPar, 1e-6)
}

// TestFitCallbackDeltaPublish publishes from Fit's epoch callback, which
// runs on the training goroutine with the workers joined: the server's
// version must advance once per epoch, and the served snapshot after Fit
// must be bit-identical to the live model — publication never lags.
func TestFitCallbackDeltaPublish(t *testing.T) {
	eps := benchCorpus(t, 24)
	train, valid := eps[:20], eps[20:]
	cfg := TestConfig()
	m := New(cfg, testEnc)
	pt := NewParallelTrainer(m, 2)
	defer pt.Close()
	srv := NewServer(m, NewBoundedMemoryPool(512))

	const epochs = 4
	hist := pt.Fit(train, valid, epochs, 8, 2, func(st EpochStats) {
		if v := srv.PublishDelta(m).Version(); v != uint64(st.Epoch+2) {
			t.Fatalf("epoch %d published version %d, want %d", st.Epoch, v, st.Epoch+2)
		}
	})

	if want := uint64(1 + len(hist)); srv.Version() != want {
		t.Fatalf("server version %d after %d epoch publishes, want %d", srv.Version(), len(hist), want)
	}
	// The final served snapshot carries the final weights.
	snap := srv.AcquireSnapshot()
	defer srv.ReleaseSnapshot(snap)
	compareWeights(t, "served vs live", snap.Model(), m, 0)
	ref := NewBatchSession(snap.Model())
	for i, ep := range eps {
		c, d, v := srv.Estimate(ep)
		rc, rd := ref.Estimate(ep)
		if v != snap.Version() || c != rc || d != rd {
			t.Fatalf("plan %d: served (%g,%g) at v%d, snapshot replay (%g,%g) at v%d",
				i, c, d, v, rc, rd, snap.Version())
		}
	}
}

// TestFitCallbackServingRace composes training with publication from Fit's
// epoch callback and concurrent serving under -race, pre-warm on: the
// training loop publishes after every epoch while servers hammer the pooled
// paths. Every served estimate must carry a version that was actually
// installed, and the delta buffers must never tear under the rotation.
func TestFitCallbackServingRace(t *testing.T) {
	eps := benchCorpus(t, 24)
	train, valid := eps[:20], eps[20:]
	cfg := TestConfig()
	m := New(cfg, testEnc)
	pt := NewParallelTrainer(m, 2)
	defer pt.Close()
	srv := NewServer(m, NewBoundedMemoryPool(256))
	srv.EnablePrewarm(4)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		pt.Fit(train, valid, 6, 8, 2, func(EpochStats) { srv.PublishDelta(m) })
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				_, _, v := srv.Estimate(eps[(w+k)%len(eps)])
				if v == 0 || v > srv.Version() {
					panic("served an uninstalled version")
				}
				if ests, _ := srv.EstimateBatch(eps[:6], 2); len(ests) != 6 {
					panic("short batch")
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkFitParallel measures the continuous train-and-serve loop end to
// end at test dimensions: a 2-epoch Fit over 64 plans through the parallel
// runtime, without and with a delta publication into a serving Server from
// the epoch callback — the publication overhead of the continuous loop is
// the delta between the two.
func BenchmarkFitParallel(b *testing.B) {
	eps := benchCorpus(b, 64)
	train, valid := eps[:56], eps[56:]
	cfg := TestConfig()

	run := func(b *testing.B, publish bool) {
		m := New(cfg, testEnc)
		pt := NewParallelTrainer(m, 1)
		defer pt.Close()
		var cb func(EpochStats)
		if publish {
			srv := NewServer(m, NewBoundedMemoryPool(1024))
			cb = func(EpochStats) { srv.PublishDelta(m) }
		}
		pt.FitNormalizers(train)
		pt.Warmup(train)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Fit(train, valid, 2, 16, 1, cb)
		}
	}
	b.Run("noPublish", func(b *testing.B) { run(b, false) })
	b.Run("deltaEveryEpoch", func(b *testing.B) { run(b, true) })
}

// TestFitEarlyStopping pins the patience contract: with a zero learning rate
// the validation error cannot improve after the first epoch, so Fit must
// stop after exactly 1 + patience epochs instead of burning the full budget;
// with early stopping disabled the same plateau runs every epoch.
func TestFitEarlyStopping(t *testing.T) {
	eps := benchCorpus(t, 12)
	train, valid := eps[:8], eps[8:]

	run := func(patience, epochs int) []EpochStats {
		cfg := TestConfig()
		cfg.LearnRate = 0 // frozen weights: epoch 0 sets the best, nothing improves after
		pt := NewParallelTrainer(New(cfg, testEnc), 1)
		defer pt.Close()
		pt.EarlyStop(EarlyStopOptions{Patience: patience})
		return pt.Fit(train, valid, epochs, 4, 1, nil)
	}

	if h := run(3, 20); len(h) != 4 {
		t.Fatalf("patience 3 on a plateau ran %d epochs, want 4 (1 best + 3 patience)", len(h))
	}
	if h := run(0, 6); len(h) != 6 {
		t.Fatalf("disabled early stopping ran %d epochs, want the full 6", len(h))
	}

	// An improving run must not stop early: every epoch that beats the best
	// resets the patience budget.
	cfg := TestConfig()
	pt := NewParallelTrainer(New(cfg, testEnc), 1)
	defer pt.Close()
	pt.EarlyStop(EarlyStopOptions{Patience: 2})
	h := pt.Fit(train, valid, 4, 4, 1, nil)
	improved := 0
	for i := 1; i < len(h); i++ {
		if h[i].ValidCost+h[i].ValidCard < h[i-1].ValidCost+h[i-1].ValidCard {
			improved++
		}
	}
	if improved == 0 && len(h) == 4 {
		t.Log("validation never improved; run length alone is not informative")
	}
	if len(h) > 4 {
		t.Fatalf("Fit ran %d epochs past its %d-epoch budget", len(h), 4)
	}

	// MinDelta: improvements smaller than the band count against patience.
	// A zero-lr run with a huge MinDelta behaves identically to the plateau.
	cfg2 := TestConfig()
	cfg2.LearnRate = 0
	pt2 := NewParallelTrainer(New(cfg2, testEnc), 1)
	defer pt2.Close()
	pt2.EarlyStop(EarlyStopOptions{Patience: 2, MinDelta: 1e9})
	if h := pt2.Fit(train, valid, 20, 4, 1, nil); len(h) != 3 {
		t.Fatalf("min-delta plateau ran %d epochs, want 3", len(h))
	}
}
