// Command costest is the interactive face of the library: it generates the
// synthetic IMDB database, trains the tree-structured estimator, and lets
// you inspect plans, estimates and dataset statistics.
//
// Subcommands:
//
//	costest demo  [-scale F] [-queries N] [-epochs N]  end-to-end train + eval
//	costest plan  [-scale F] [-seed N] [-joins N]      show a planned query
//	costest data  [-scale F]                           dataset summary
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/pg"
	"costest/internal/plan"
	"costest/internal/planner"
	"costest/internal/sqlpred"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "demo":
		demo(os.Args[2:])
	case "plan":
		showPlan(os.Args[2:])
	case "data":
		dataSummary(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: costest <demo|plan|data> [flags]")
	os.Exit(2)
}

type env struct {
	db  *dataset.DB
	cat *stats.Catalog
	eng *exec.Engine
	pg  *pg.Estimator
	pl  *planner.Planner
}

func buildEnv(scale float64, seed int64) *env {
	db := dataset.GenerateIMDB(dataset.Config{Seed: seed, Scale: scale})
	cat := stats.Collect(db, stats.Options{Buckets: 60, SampleSize: 128, Seed: seed})
	est := pg.New(cat)
	return &env{
		db: db, cat: cat,
		eng: exec.NewEngine(db),
		pg:  est,
		pl:  planner.New(est, db.Schema),
	}
}

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "dataset scale factor")
	nq := fs.Int("queries", 400, "training queries")
	epochs := fs.Int("epochs", 10, "training epochs")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	start := time.Now()
	e := buildEnv(*scale, *seed)
	log.Printf("database: %d rows across %d tables", e.db.TotalRows(), len(e.db.Tables))

	lab := &workload.Labeler{Planner: e.pl, Engine: e.eng}
	trainQ := workload.TrainingStrings(e.db, *seed+10, *nq)
	labeled := lab.Label(trainQ)
	train, valid := workload.Split(labeled, 0.9)
	log.Printf("labeled %d/%d training queries (%.1fs)", len(labeled), *nq, time.Since(start).Seconds())

	ws := collectStrings(train)
	embCfg := strembed.DefaultConfig()
	embCfg.Dim = 24
	embCfg.MaxValuesPerColumn = 4000
	emb := strembed.Build(e.db, ws, embCfg)
	log.Printf("string embedding: %d rules selected, dictionary of %d substrings",
		len(emb.Rules), emb.DictSize)

	enc := feature.NewEncoder(e.cat, emb, true)
	cfg := core.DefaultConfig()
	cfg.OpEmbed, cfg.MetaEmbed, cfg.BitmapEmbed, cfg.PredEmbed = 16, 16, 16, 16
	cfg.Hidden, cfg.EstHidden = 32, 16
	cfg.LearnRate = 0.003
	model := core.New(cfg, enc)
	log.Printf("model: %d parameters (pred=%v rep=%v multitask)", model.NumParams(), cfg.Pred, cfg.Rep)

	encode := func(ss []*workload.Labeled) []*feature.EncodedPlan {
		var out []*feature.EncodedPlan
		for _, s := range ss {
			ep, err := enc.Encode(s.Plan)
			if err != nil {
				log.Fatalf("encode: %v", err)
			}
			out = append(out, ep)
		}
		return out
	}
	trE, vaE := encode(train), encode(valid)
	tr := core.NewParallelTrainer(model, 0)
	defer tr.Close()
	tr.Fit(trE, vaE, *epochs, 16, 0, func(s core.EpochStats) {
		log.Printf("epoch %2d  loss=%8.2f  valid cost q=%6.2f  valid card q=%6.2f",
			s.Epoch, s.TrainLoss, s.ValidCost, s.ValidCard)
	})

	// Test on unseen JOB-style queries; compare against PG.
	pgCal := e.pg.Calibrated(plansOf(train))
	testQ := workload.JOBFull(e.db, *seed+99, 30)
	testS := lab.Label(testQ)
	var pgCard, pgCost, tCard, tCost []float64
	for _, s := range testS {
		p := s.Plan.Clone()
		pgCard = append(pgCard, metrics.QError(e.pg.EstimateCard(p), s.Card))
		pgCost = append(pgCost, metrics.QError(pgCal.EstimateCost(p), s.Cost))
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			log.Fatalf("encode: %v", err)
		}
		cost, card := model.Estimate(ep)
		tCard = append(tCard, metrics.QError(card, s.Card))
		tCost = append(tCost, metrics.QError(cost, s.Cost))
	}
	fmt.Println()
	fmt.Println(metrics.Header("JOB-style test"))
	fmt.Println(metrics.Summarize(pgCard).Row("PGCard"))
	fmt.Println(metrics.Summarize(tCard).Row("TreeModel card"))
	fmt.Println(metrics.Summarize(pgCost).Row("PGCost"))
	fmt.Println(metrics.Summarize(tCost).Row("TreeModel cost"))
	log.Printf("total: %.1fs", time.Since(start).Seconds())
}

func collectStrings(samples []*workload.Labeled) []strembed.WorkloadString {
	var out []strembed.WorkloadString
	seen := map[string]bool{}
	add := func(w strembed.WorkloadString) {
		key := w.Table + "|" + w.Column + "|" + w.S
		if w.S != "" && !seen[key] {
			seen[key] = true
			out = append(out, w)
		}
	}
	for _, s := range samples {
		for _, f := range s.Query.Filters {
			sqlpred.Walk(f, func(a *sqlpred.Atom) {
				if !a.IsStr {
					return
				}
				switch a.Op {
				case sqlpred.OpEq, sqlpred.OpNe:
					add(strembed.WorkloadString{Table: a.Table, Column: a.Column,
						S: a.StrVal, Kind: strembed.MatchExact})
				case sqlpred.OpIn:
					for _, v := range a.InVals {
						add(strembed.WorkloadString{Table: a.Table, Column: a.Column,
							S: v, Kind: strembed.MatchExact})
					}
				case sqlpred.OpLike, sqlpred.OpNotLike:
					core, pre, suf := strembed.PatternParts(a.StrVal)
					kind := strembed.MatchExact
					switch {
					case pre && suf:
						kind = strembed.MatchContains
					case pre:
						kind = strembed.MatchSuffix
					case suf:
						kind = strembed.MatchPrefix
					}
					add(strembed.WorkloadString{Table: a.Table, Column: a.Column, S: core, Kind: kind})
				}
			})
		}
	}
	return out
}

func plansOf(samples []*workload.Labeled) []*plan.Node {
	out := make([]*plan.Node, len(samples))
	for i, s := range samples {
		out[i] = s.Plan
	}
	return out
}

func showPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "dataset scale factor")
	seed := fs.Int64("seed", 7, "query generator seed")
	joins := fs.Int("joins", 2, "number of joins")
	fs.Parse(args)

	e := buildEnv(*scale, 1)
	g := workload.NewGenerator(e.db, *seed)
	qs := g.Generate(workload.Spec{
		MinJoins: *joins, MaxJoins: *joins,
		MaxAtomsPerTable: 2, StringProb: 0.4, OrProb: 0.2, FilterProb: 0.9,
	}, 1)
	q := qs[0]
	fmt.Println("SQL:")
	fmt.Println("  " + q.SQL())

	root, err := e.pl.Plan(q)
	if err != nil {
		log.Fatalf("plan: %v", err)
	}
	if _, err := e.eng.Run(root); err != nil {
		log.Fatalf("execute: %v", err)
	}
	e.pg.Annotate(root)
	fmt.Println("\nPhysical plan (est = PostgreSQL-style estimate, real = executed):")
	fmt.Print(root)
	fmt.Printf("\ntrue cost: %.2f ms   PG estimated cost: %.2f (uncalibrated units)\n",
		root.TrueCost, root.EstCost)
}

func dataSummary(args []string) {
	fs := flag.NewFlagSet("data", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "dataset scale factor")
	fs.Parse(args)

	e := buildEnv(*scale, 1)
	names := make([]string, 0, len(e.db.Tables))
	for n := range e.db.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-18s %10s %8s\n", "table", "rows", "columns")
	for _, n := range names {
		t := e.db.Table(n)
		fmt.Printf("%-18s %10d %8d\n", n, t.NumRows, len(t.Cols))
	}
	fmt.Printf("\ntotal rows: %d\n", e.db.TotalRows())

	cs := e.cat.Column("title", "production_year")
	fmt.Printf("\ntitle.production_year: ndv=%d min=%.0f max=%.0f mcvs=%d\n",
		cs.NDV, cs.Min, cs.Max, len(cs.MCVs))
}
