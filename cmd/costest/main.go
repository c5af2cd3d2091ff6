// Command costest inspects the synthetic IMDB database the estimator is
// trained on: a planned query with its estimated and executed
// cardinalities and costs, or a summary of the tables and their statistics.
// Training and evaluation enter through examples/quickstart (one model, end
// to end) and cmd/experiments (the paper's tables).
//
// Subcommands:
//
//	costest plan  [-scale F] [-seed N] [-joins N]  show a planned query
//	costest data  [-scale F]                       dataset summary
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/stats"
	"costest/internal/workload"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "plan":
		showPlan(os.Args[2:])
	case "data":
		dataSummary(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: costest <plan|data> [flags]")
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
