// Batch inference: demonstrate the width-first batched evaluation of
// Section 4.3 and the Representation Memory Pool of Section 3 — the two
// mechanisms behind the paper's Table 12 efficiency results.
//
//	go run ./examples/batch_inference
package main

import (
	"fmt"
	"log"
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
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	cat := stats.Collect(db, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	eng := exec.NewEngine(db)
	pl := planner.New(pg.New(cat), db.Schema)
	lab := &workload.Labeler{Planner: pl, Engine: eng}

	// A trained (here: freshly initialized) model is enough to measure the
	// inference mechanics; weights do not affect latency.
	enc := feature.NewEncoder(cat, strembed.HashEmbedder{DimN: 16}, true)
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.EstHidden = 32, 16
	cfg.OpEmbed, cfg.MetaEmbed, cfg.BitmapEmbed, cfg.PredEmbed = 16, 16, 16, 16
	model := core.New(cfg, enc)

	// 113 JOB-style plans, as in Table 12.
	qs := workload.JOBFull(db, 11, 113)
	samples := lab.Label(qs)
	var eps []*feature.EncodedPlan
	for _, s := range samples {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			log.Fatal(err)
		}
		eps = append(eps, ep)
	}
	fmt.Printf("evaluating %d JOB-style plans\n\n", len(eps))

	// One plan per call: every plan is its own batch of one.
	t0 := time.Now()
	for _, ep := range eps {
		model.Estimate(ep)
	}
	seq := time.Since(t0)

	// Width-first batched evaluation across the whole set.
	t0 = time.Now()
	model.EstimateBatch(eps)
	batch := time.Since(t0)

	fmt.Printf("one by one: %7.3f ms/query\n", ms(seq, len(eps)))
	fmt.Printf("batched:    %7.3f ms/query  (%.1fx speedup)\n",
		ms(batch, len(eps)), float64(seq)/float64(batch))

	// Memory pool: the optimizer asks about overlapping sub-plans; shared
	// sub-plans are evaluated once.
	pool := core.NewMemoryPool()
	t0 = time.Now()
	for _, ep := range eps {
		model.EstimateWithPool(ep, pool)
	}
	first := time.Since(t0)
	t0 = time.Now()
	for _, ep := range eps {
		model.EstimateWithPool(ep, pool)
	}
	second := time.Since(t0)
	fmt.Printf("\nmemory pool: %d sub-plans cached, hit rate %.0f%%\n", pool.Len(), pool.HitRate()*100)
	fmt.Printf("cold pass:  %7.3f ms/query\n", ms(first, len(eps)))
	fmt.Printf("warm pass:  %7.3f ms/query  (%.1fx speedup from the pool)\n",
		ms(second, len(eps)), float64(first)/float64(second))

	// Steady-state serving configuration: one reusable BatchSession (all
	// arenas high-water sized, zero allocations per call once warm) plus the
	// memory pool, so repeated batches skip every already-seen subtree.
	sess := core.NewBatchSession(model)
	sess.EstimateBatchWithPool(eps, pool) // warm the arenas
	const rounds = 10
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		sess.EstimateBatchWithPool(eps, pool)
	}
	warmBatch := time.Since(t0) / rounds
	fmt.Printf("\nwarm pooled batch session: %7.3f ms/query (0 allocs/op once warm)\n",
		ms(warmBatch, len(eps)))
}

func ms(d time.Duration, n int) float64 {
	return float64(d.Microseconds()) / 1000 / float64(n)
}
