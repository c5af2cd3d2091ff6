// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6): cardinality and cost q-error tables on the numeric
// workloads (Tables 7-8), the string-predicate JOB workload (Tables 10-11),
// validation-error curves (Figures 7-8), error distributions (Figures 9-10)
// and the efficiency comparison (Table 12). The harness builds the database,
// statistics, workloads and models once per suite and shares them across
// experiments.
package experiments

import (
	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/feature"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/stats"
	"costest/internal/workload"
)

// Config sizes a reproduction run. Small() fits in seconds for benches and
// CI; Full() approaches the paper's workload sizes (minutes of CPU).
type Config struct {
	Seed  int64
	Scale float64 // dataset scale factor

	SampleSize int // sample-bitmap length (paper: 1000)
	Buckets    int // histogram resolution

	TrainNumeric int // numeric training queries (Section 6.2)
	TrainStrings int // string training queries (Section 6.3.2)
	SingleTable  int // single-table string workload size (Section 6.3.1)

	TestSynthetic int // paper: 5000
	TestScale     int // paper: 500
	TestJOBLight  int // paper: 70
	TestJOB       int // paper: 113

	Epochs    int
	BatchSize int

	Hidden    int // representation width
	Embed     int // per-feature embedding width
	EstHidden int
	StrDim    int // string embedding width
	MSCNWidth int

	// Workers is the labeler's parallelism and the trainer's cap on
	// concurrently executing shards (<= 0 resolves to GOMAXPROCS). It does
	// not reach model evaluation: every batch, Table 12's Batch rows
	// included, runs on one goroutine.
	Workers int

	// Shards is the data-parallel width of the trainer (<= 0 resolves to
	// GOMAXPROCS). More than one shard reassociates gradient sums across
	// shard boundaries, so q-errors match a one-shard run to floating-point
	// reassociation, not bit for bit — and depend on the shard count, which
	// is why the shipped configurations fix it instead of following the
	// machine.
	Shards int
}

// Small returns a configuration that runs the full suite in roughly a
// minute of CPU — the default for `go test -bench`.
func Small() Config {
	return Config{
		Seed:          1,
		Scale:         0.04,
		SampleSize:    64,
		Buckets:       40,
		TrainNumeric:  550,
		TrainStrings:  420,
		SingleTable:   500,
		TestSynthetic: 150,
		TestScale:     90,
		TestJOBLight:  40,
		TestJOB:       60,
		Epochs:        14,
		BatchSize:     16,
		Hidden:        24,
		Embed:         12,
		EstHidden:     12,
		StrDim:        16,
		MSCNWidth:     32,
		Workers:       0,
		Shards:        2,
	}
}

// Full returns a configuration at the paper's workload sizes. Expect tens
// of minutes of CPU.
func Full() Config {
	return Config{
		Seed:          1,
		Scale:         1.0,
		SampleSize:    1000,
		Buckets:       100,
		TrainNumeric:  10000,
		TrainStrings:  8000,
		SingleTable:   5000,
		TestSynthetic: workload.SyntheticSize,
		TestScale:     workload.ScaleSize,
		TestJOBLight:  workload.JOBLightSize,
		TestJOB:       workload.JOBFullSize,
		Epochs:        30,
		BatchSize:     64,
		Hidden:        64,
		Embed:         32,
		EstHidden:     32,
		StrDim:        32,
		MSCNWidth:     64,
		Workers:       0,
		Shards:        2,
	}
}

// Env is the shared experimental environment.
type Env struct {
	Cfg     Config
	DB      *dataset.DB
	Cat     *stats.Catalog
	Eng     *exec.Engine
	PG      *pg.Estimator
	Planner *planner.Planner
	Labeler *workload.Labeler
}

// NewEnv generates the database, collects statistics and wires the engine,
// baseline estimator and planner.
func NewEnv(cfg Config) *Env {
	db := dataset.GenerateIMDB(dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	cat := stats.Collect(db, stats.Options{
		Buckets: cfg.Buckets, SampleSize: cfg.SampleSize, Seed: cfg.Seed,
	})
	eng := exec.NewEngine(db)
	est := pg.New(cat)
	pl := planner.New(est, db.Schema)
	return &Env{
		Cfg:     cfg,
		DB:      db,
		Cat:     cat,
		Eng:     eng,
		PG:      est,
		Planner: pl,
		Labeler: &workload.Labeler{Planner: pl, Engine: eng, Parallelism: cfg.Workers},
	}
}

// fitModel trains model on tr with per-epoch validation on va — the single
// entry point every suite's model fits go through.
func (e *Env) fitModel(model *core.Model, tr, va []*feature.EncodedPlan) []core.EpochStats {
	pt := core.NewParallelTrainer(model, e.Cfg.Shards)
	defer pt.Close()
	return pt.Fit(tr, va, e.Cfg.Epochs, e.Cfg.BatchSize, e.Cfg.Workers, nil)
}

// coreConfig builds a model config at the environment's sizes.
func (e *Env) coreConfig(pred core.PredModel, rep core.RepModel, target core.Target) core.Config {
	c := core.DefaultConfig()
	c.OpEmbed, c.MetaEmbed, c.BitmapEmbed, c.PredEmbed = e.Cfg.Embed, e.Cfg.Embed, e.Cfg.Embed, e.Cfg.Embed
	c.Hidden = e.Cfg.Hidden
	c.EstHidden = e.Cfg.EstHidden
	c.Pred = pred
	c.Rep = rep
	c.Target = target
	c.Seed = e.Cfg.Seed
	c.LearnRate = 0.003
	return c
}
