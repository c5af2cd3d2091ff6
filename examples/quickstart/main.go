// Quickstart: train the tree-structured cost estimator end-to-end on a tiny
// synthetic IMDB instance and estimate an unseen query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

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

// walkthrough is the substrate and the trained model the quickstart builds.
type walkthrough struct {
	db    *dataset.DB
	eng   *exec.Engine
	pl    *planner.Planner
	enc   *feature.Encoder
	model *core.Model
	valid []*feature.EncodedPlan
	hist  []core.EpochStats
}

// train builds the substrate, labels a training workload and trains the
// model for 8 epochs, printing progress to w.
func train(w io.Writer) *walkthrough {
	// 1. Substrate: synthetic IMDB + statistics + executor + planner.
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	cat := stats.Collect(db, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	eng := exec.NewEngine(db)
	pl := planner.New(pg.New(cat), db.Schema)
	fmt.Fprintf(w, "database: %d rows across %d tables\n", db.TotalRows(), len(db.Tables))

	// 2. Training data: generated queries, planned and executed for ground
	// truth (the paper's ⟨plan, cost, cardinality⟩ triples).
	queries := workload.TrainingNumeric(db, 42, 300)
	labeler := &workload.Labeler{Planner: pl, Engine: eng}
	labeled := labeler.Label(queries)
	trainSet, validSet := workload.Split(labeled, 0.9)
	fmt.Fprintf(w, "training triples: %d (train %d / valid %d)\n", len(labeled), len(trainSet), len(validSet))

	// 3. Feature encoding: operation one-hots, metadata bitmaps, predicate
	// trees and sample bitmaps (Section 4.1).
	enc := feature.NewEncoder(cat, strembed.ZeroEncoder{}, true)
	encode := func(ss []*workload.Labeled) []*feature.EncodedPlan {
		var out []*feature.EncodedPlan
		for _, s := range ss {
			ep, err := enc.Encode(s.Plan)
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, ep)
		}
		return out
	}

	// 4. The model: min-max-pooled predicates, tree-LSTM representation,
	// multitask cost+cardinality heads, q-error loss (Section 4.2-4.3). Each
	// head floors its q-error at its own floor: cardinality at one row
	// (nn.CardFloor), cost at 0.01 ms (nn.CostFloor, below any plan's true
	// cost), so sub-millisecond plans keep their error.
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.EstHidden = 32, 16
	cfg.OpEmbed, cfg.MetaEmbed, cfg.BitmapEmbed, cfg.PredEmbed = 16, 16, 16, 16
	cfg.LearnRate = 0.003
	model := core.New(cfg, enc)
	trainer := core.NewParallelTrainer(model, 1)
	defer trainer.Close()
	valid := encode(validSet)
	hist := trainer.Fit(encode(trainSet), valid, 8, 16, 0, func(s core.EpochStats) {
		fmt.Fprintf(w, "  epoch %d: loss %.2f, valid cost q-error %.2f, valid card q-error %.2f\n",
			s.Epoch, s.TrainLoss, s.ValidCost, s.ValidCard)
	})
	return &walkthrough{db: db, eng: eng, pl: pl, enc: enc, model: model, valid: valid, hist: hist}
}

func main() {
	log.SetFlags(0)
	wt := train(os.Stdout)

	// 5. Estimate an unseen query.
	test := workload.JOBLight(wt.db, 777, 1)[0]
	fmt.Printf("\ntest query: %s\n", test.SQL())
	root, err := wt.pl.Plan(test)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := wt.eng.Run(root); err != nil {
		log.Fatal(err)
	}
	ep, err := wt.enc.Encode(root)
	if err != nil {
		log.Fatal(err)
	}
	cost, card := wt.model.Estimate(ep)
	fmt.Printf("estimated cost %.2f ms (real %.2f), cardinality %.0f (real %.0f)\n",
		cost, root.TrueCost, card, root.CardinalityNode().TrueRows)
}
