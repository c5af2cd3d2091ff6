// Serving: the hot-swap runtime end to end. A trainer retrains the live
// model in place and publishes immutable snapshots while concurrent
// goroutines keep serving pooled estimates — the long-lived optimizer
// process of the paper's online workflow (Section 3), with atomic weight
// publication and O(1) generation-tagged pool invalidation.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Substrate and training data (see examples/quickstart for the
	// step-by-step version).
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	cat := stats.Collect(db, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	eng := exec.NewEngine(db)
	pl := planner.New(pg.New(cat), db.Schema)
	labeler := &workload.Labeler{Planner: pl, Engine: eng}
	labeled := labeler.Label(workload.TrainingNumeric(db, 42, 240))
	enc := feature.NewEncoder(cat, strembed.ZeroEncoder{}, true)
	var eps []*feature.EncodedPlan
	for _, s := range labeled {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			log.Fatal(err)
		}
		eps = append(eps, ep)
	}
	fmt.Printf("corpus: %d labeled plans\n", len(eps))

	// 2. Model, trainer, and the serving runtime: a Server owns the current
	// ModelSnapshot behind an atomic pointer plus a generation-tagged
	// representation memory pool.
	cfg := core.TestConfig()
	model := core.New(cfg, enc)
	trainer := core.NewParallelTrainer(model, 1)
	defer trainer.Close()
	trainer.FitNormalizers(eps)
	srv := core.NewServer(model, core.NewBoundedMemoryPool(4096))
	// Pre-warming replays the hottest served plans through each newly
	// published snapshot in the background, so the post-swap stale transient
	// is paid off the request path.
	srv.EnablePrewarm(16)
	fmt.Printf("serving snapshot v%d (%d params)\n", srv.Version(), model.NumParams())

	// 3. Serve and retrain concurrently. The trainer mutates the live model
	// freely; serving goroutines only ever touch immutable snapshots, so no
	// estimate observes torn weights, and each publish invalidates the pool
	// in O(1) by advancing its generation.
	var served atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if _, _, v := srv.Estimate(eps[(w*17+k)%len(eps)]); v == 0 {
					panic("unversioned estimate")
				}
				batch, _ := srv.EstimateBatch(eps[:12], 2)
				served.Add(int64(len(batch)) + 1)
				select {
				case <-done:
					return
				default:
				}
			}
		}(w)
	}

	for epoch := 0; epoch < 6; epoch++ {
		loss := trainer.TrainEpochParallel(eps, 16, 1)
		snap := trainer.Publish(srv)
		costQ, cardQ := snap.Model().ValidationError(eps)
		fmt.Printf("epoch %d: loss %.3f -> published v%d (train-set q-error: cost %.2f, card %.2f)\n",
			epoch, loss, snap.Version(), costQ, cardQ)
	}
	close(done)
	wg.Wait()

	// 4. The swap transient is visible in the pool statistics: stale lookups
	// are generation mismatches right after a publish, decaying as the new
	// generation repopulates the pool.
	pool := srv.Pool()
	fmt.Printf("\nserved %d estimates across %d snapshots while retraining\n", served.Load(), srv.Version())
	fmt.Printf("pool: %d entries resident, hit rate %.1f%%, stale rate %.1f%%\n",
		pool.Len(), pool.HitRate()*100, pool.StaleRate()*100)

	// Adaptive sizing: Advise inspects the windowed hit/stale rates and
	// occupancy and recommends a bound; SetBound applies it live.
	advice := pool.Advise()
	fmt.Printf("pool advice: bound %d -> %d (%s)\n", advice.Bound, advice.Recommended, advice.Reason)
	if advice.Recommended != advice.Bound {
		pool.SetBound(advice.Recommended)
		fmt.Printf("pool rebounded to %d entries\n", pool.Bound())
	}

	// 5. Snapshots are immutable: anyone still holding v-final can replay it
	// forever, bit for bit, regardless of what training does next.
	final := srv.Snapshot()
	c1, d1 := final.Model().Estimate(eps[0])
	trainer.TrainEpochParallel(eps, 16, 1) // keep training past the last publish
	c2, d2 := final.Model().Estimate(eps[0])
	fmt.Printf("snapshot v%d replay stable across further training: %v (cost %.2f, card %.0f, q-error vs truth %.2f)\n",
		final.Version(), c1 == c2 && d1 == d2, c1, d1, nn.QError(d1, eps[0].Card))
}
