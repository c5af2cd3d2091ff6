// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6): cardinality and cost q-error tables on the numeric
// workloads (Tables 7-8), the string-predicate JOB workload (Tables 10-11),
// validation-error curves (Figures 7-8), error distributions (Figures 9-10)
// and the efficiency comparison (Table 12). The harness builds the database,
// statistics, workloads and models once per suite and shares them across
// experiments.
package experiments

import (
	"fmt"

	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/query"
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
	}
}

// trainShards is the data-parallel width of every model fit. More than one
// shard reassociates gradient sums across shard boundaries, so q-errors
// match a one-shard run to floating-point reassociation, not bit for bit —
// and depend on the shard count, which is why it is fixed instead of
// following the machine.
const trainShards = 2

// Env is the shared experimental environment.
type Env struct {
	Cfg     Config
	DB      *dataset.DB
	Cat     *stats.Catalog
	PG      *pg.Estimator
	Labeler *workload.Labeler
}

// NewEnv generates the database, collects statistics and wires the baseline
// estimator and the labeler, which plans with it and executes every plan.
func NewEnv(cfg Config) *Env {
	db := dataset.GenerateIMDB(dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	cat := stats.Collect(db, stats.Options{
		Buckets: cfg.Buckets, SampleSize: cfg.SampleSize, Seed: cfg.Seed,
	})
	est := pg.New(cat)
	return &Env{
		Cfg:     cfg,
		DB:      db,
		Cat:     cat,
		PG:      est,
		Labeler: &workload.Labeler{Planner: planner.New(est, db.Schema), Engine: exec.NewEngine(db)},
	}
}

// labelSplit labels qs and splits the labeled queries 9:1 into training and
// validation sets; fewer than atLeast labeled queries is an error.
func (e *Env) labelSplit(what string, qs []*query.Query, atLeast int) (train, valid []*workload.Labeled, err error) {
	labeled := e.Labeler.Label(qs)
	if len(labeled) < atLeast {
		return nil, nil, fmt.Errorf("experiments: only %d/%d %s queries labeled", len(labeled), len(qs), what)
	}
	train, valid = workload.Split(labeled, 0.9)
	return train, valid, nil
}
