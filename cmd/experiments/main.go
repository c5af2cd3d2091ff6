// Command experiments regenerates every table and figure of the paper's
// evaluation section over the synthetic IMDB substrate.
//
// Usage:
//
//	experiments [-preset small|full] [-suite all|numeric|strings]
//	            [-scale F] [-epochs N] [-seed N] [-out FILE]
//
// The small preset finishes in about a minute of CPU; full approaches the
// paper's workload sizes and takes much longer. Every model trains on two
// data-parallel shards whatever the machine, so the tables before Table 12's
// timings do not depend on GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"costest/internal/experiments"
)

func main() {
	log.SetFlags(0)
	preset := flag.String("preset", "small", "configuration preset: small or full")
	suite := flag.String("suite", "all", "which suite to run: all, numeric or strings")
	scale := flag.Float64("scale", 0, "override dataset scale factor")
	epochs := flag.Int("epochs", 0, "override training epochs")
	seed := flag.Int64("seed", 0, "override random seed")
	out := flag.String("out", "", "also write the report to this file")
	flag.Parse()

	var cfg experiments.Config
	switch *preset {
	case "small":
		cfg = experiments.Small()
	case "full":
		cfg = experiments.Full()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}

	start := time.Now()
	log.Printf("building environment (scale=%.2f, sample=%d)...", cfg.Scale, cfg.SampleSize)
	env := experiments.NewEnv(cfg)
	log.Printf("database: %d rows across %d tables (%.1fs)",
		env.DB.TotalRows(), len(env.DB.Tables), time.Since(start).Seconds())

	report := ""
	if *suite == "all" || *suite == "numeric" {
		t := time.Now()
		log.Printf("running numeric suite (Tables 7-8, Figure 7)...")
		res, err := env.RunNumeric()
		if err != nil {
			log.Fatalf("numeric suite: %v", err)
		}
		report += experiments.ReportNumeric(res)
		log.Printf("numeric suite done (%.1fs)", time.Since(t).Seconds())
	}
	if *suite == "all" || *suite == "strings" {
		t := time.Now()
		log.Printf("running string suite (Tables 10-12, Figures 8-10)...")
		res, err := env.RunStrings()
		if err != nil {
			log.Fatalf("string suite: %v", err)
		}
		report += "\n" + experiments.ReportStrings(res)
		log.Printf("string suite done (%.1fs)", time.Since(t).Seconds())
	}

	fmt.Println(report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *out, err)
		}
		log.Printf("report written to %s", *out)
	}
	log.Printf("total: %.1fs", time.Since(start).Seconds())
}
