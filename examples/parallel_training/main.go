// Parallel training: the data-parallel runtime end to end. A ParallelTrainer
// shards every minibatch across worker sessions with private gradient
// ParamSets and reduces them deterministically into one Adam step — the same
// schedule whatever the shard count, so losses agree across shard counts to
// floating-point reassociation.
//
//	go run ./examples/parallel_training
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/feature"
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
	labeled := labeler.Label(workload.TrainingNumeric(db, 7, 240))
	enc := feature.NewEncoder(cat, strembed.ZeroEncoder{}, true)
	var eps []*feature.EncodedPlan
	for _, s := range labeled {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			log.Fatal(err)
		}
		eps = append(eps, ep)
	}
	fmt.Printf("corpus: %d labeled plans, %d CPU(s)\n", len(eps), runtime.GOMAXPROCS(0))

	// 2. Two identically seeded models: one trained with a single shard, one
	// with two. Both consume the same shuffle stream, so they walk the same
	// minibatches.
	cfg := core.TestConfig()
	mSeq := core.New(cfg, enc)
	mPar := core.New(cfg, enc)
	seq := core.NewParallelTrainer(mSeq, 1)
	par := core.NewParallelTrainer(mPar, 2)
	defer seq.Close()
	defer par.Close()
	seq.FitNormalizers(eps)
	par.FitNormalizers(eps)
	par.Warmup(eps) // size worker arenas: epochs after this are 0 allocs/op

	const epochs = 4
	t0 := time.Now()
	var lossSeq float64
	for e := 0; e < epochs; e++ {
		lossSeq = seq.TrainEpochParallel(eps, 16)
	}
	dSeq := time.Since(t0)
	t0 = time.Now()
	var lossPar float64
	for e := 0; e < epochs; e++ {
		lossPar = par.TrainEpochParallel(eps, 16)
	}
	dPar := time.Since(t0)
	fmt.Printf("1 shard:  %d epochs in %v (final loss %.6f)\n", epochs, dSeq.Round(time.Millisecond), lossSeq)
	fmt.Printf("%d shards: %d epochs in %v (final loss %.6f)\n",
		par.Shards(), epochs, dPar.Round(time.Millisecond), lossPar)
	fmt.Printf("loss delta: %.2e (floating-point reassociation across shard boundaries only)\n",
		math.Abs(lossSeq-lossPar))

	// 3. The parallel trainer composes with hot-swap serving: publish
	// between epochs while the serving side keeps reading snapshots.
	srv := core.NewServer(mPar, core.NewBoundedMemoryPool(4096))
	snap := srv.PublishDelta(mPar)
	costQ, cardQ := snap.Model().ValidationError(eps)
	fmt.Printf("published v%d from the parallel trainer (train-set q-error: cost %.2f, card %.2f)\n",
		snap.Version(), costQ, cardQ)

	// 4. The continuous train-and-serve loop: ParallelTrainer.Fit drives
	// shuffled epochs with per-epoch validation, and its epoch callback runs
	// on the training goroutine with the workers joined, so it may publish.
	// The trainer never publishes by itself: whether a trained model
	// reaches serving is the caller's decision (cmd/costestd's supervisor
	// gates it on validation). Publishes go through the delta path: only the
	// parameters the optimizer touched since the target snapshot buffers
	// were last synced are copied (double-buffered rotation).
	train, valid := eps[:len(eps)*8/10], eps[len(eps)*8/10:]
	mLoop := core.New(cfg, enc)
	loop := core.NewParallelTrainer(mLoop, 2)
	defer loop.Close()
	loopSrv := core.NewServer(mLoop, core.NewBoundedMemoryPool(4096))
	hist := loop.Fit(train, valid, 4, 16, 0, func(st core.EpochStats) {
		v := loopSrv.PublishDelta(mLoop).Version()
		fmt.Printf("  epoch %d: loss %.5f, valid q-error cost %.2f card %.2f — published v%d (delta copied %d params)\n",
			st.Epoch, st.TrainLoss, st.ValidCost, st.ValidCard, v, loopSrv.LastDeltaCopied())
	})
	fmt.Printf("continuous loop: %d epochs, server at v%d serving the last epoch's weights\n",
		len(hist), loopSrv.Version())

	// Anything served during the loop came from an immutable snapshot.
	c, d, v := loopSrv.Estimate(valid[0])
	fmt.Printf("serving v%d: cost %.1f, card %.1f\n", v, c, d)
}
