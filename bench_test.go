// Package costest_test holds the benchmark harness that regenerates every
// table and figure from the paper's evaluation section (run with
// `go test -bench=. -benchmem`). Heavy suites (which train whole model
// ladders) run once and are cached across benchmarks; their headline numbers
// are attached as custom benchmark metrics and the full paper-style tables
// are logged.
//
// Table/figure map:
//
//	BenchmarkTable7_*    cardinality q-errors on JOB-light/Synthetic/Scale
//	BenchmarkTable8_*    cost q-errors on the same workloads
//	BenchmarkFigure7     validation-error curves (card & cost)
//	BenchmarkTable10     cardinality q-errors on the JOB (strings) workload
//	BenchmarkTable11     cost q-errors on the JOB workload
//	BenchmarkFigure8     single-table validation curves
//	BenchmarkFigure9     error-distribution boxes
//	BenchmarkFigure10    estimated-vs-real cost quartiles
//	BenchmarkTable12_*   per-query estimation latency (the real timed loops)
//	BenchmarkAblations   README's design-ablation table (5 seeds per pair)
//	BenchmarkLabel       labeling the daemon's default training corpus
package costest_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/experiments"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/mscn"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

var (
	onceEnv  sync.Once
	benchEnv *experiments.Env

	onceNumeric sync.Once
	numericRes  *experiments.NumericResults
	numericErr  error

	onceStrings sync.Once
	stringsRes  *experiments.StringResults
	stringsErr  error
)

func env() *experiments.Env {
	onceEnv.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Small())
	})
	return benchEnv
}

func numeric(b *testing.B) *experiments.NumericResults {
	b.Helper()
	onceNumeric.Do(func() {
		numericRes, numericErr = env().RunNumeric()
	})
	if numericErr != nil {
		b.Fatal(numericErr)
	}
	return numericRes
}

func strings_(b *testing.B) *experiments.StringResults {
	b.Helper()
	onceStrings.Do(func() {
		stringsRes, stringsErr = env().RunStrings()
	})
	if stringsErr != nil {
		b.Fatal(stringsErr)
	}
	return stringsRes
}

// reportWorkload attaches the PG baseline and best-tree mean q-errors as
// metrics and logs the full table once.
func reportWorkload(b *testing.B, tables []experiments.WorkloadTable, workloadName string) {
	b.Helper()
	for _, wt := range tables {
		if wt.Workload != workloadName {
			continue
		}
		for _, m := range wt.Methods {
			b.ReportMetric(m.Summary.Mean, "qerr_mean:"+m.Name)
		}
	}
}

func BenchmarkTable7_JOBLight(b *testing.B) {
	res := numeric(b)
	for i := 0; i < b.N; i++ {
		reportWorkload(b, res.Table7, "JOB-light")
	}
	b.Log("\n" + experiments.ReportNumeric(res))
}

func BenchmarkTable7_Synthetic(b *testing.B) {
	res := numeric(b)
	for i := 0; i < b.N; i++ {
		reportWorkload(b, res.Table7, "Synthetic")
	}
}

func BenchmarkTable7_Scale(b *testing.B) {
	res := numeric(b)
	for i := 0; i < b.N; i++ {
		reportWorkload(b, res.Table7, "Scale")
	}
}

func BenchmarkTable8_JOBLight(b *testing.B) {
	res := numeric(b)
	for i := 0; i < b.N; i++ {
		reportWorkload(b, res.Table8, "JOB-light")
	}
}

func BenchmarkTable8_Synthetic(b *testing.B) {
	res := numeric(b)
	for i := 0; i < b.N; i++ {
		reportWorkload(b, res.Table8, "Synthetic")
	}
}

func BenchmarkTable8_Scale(b *testing.B) {
	res := numeric(b)
	for i := 0; i < b.N; i++ {
		reportWorkload(b, res.Table8, "Scale")
	}
}

func BenchmarkFigure7(b *testing.B) {
	res := numeric(b)
	for i := 0; i < b.N; i++ {
		for _, c := range res.Figure7a {
			if len(c.Values) > 0 {
				b.ReportMetric(c.Values[len(c.Values)-1], "final_card_q:"+c.Name)
			}
		}
		for _, c := range res.Figure7b {
			if len(c.Values) > 0 {
				b.ReportMetric(c.Values[len(c.Values)-1], "final_cost_q:"+c.Name)
			}
		}
	}
}

func BenchmarkTable10(b *testing.B) {
	res := strings_(b)
	for i := 0; i < b.N; i++ {
		for _, m := range res.Table10 {
			b.ReportMetric(m.Summary.Mean, "qerr_mean:"+m.Name)
		}
	}
	b.Log("\n" + experiments.ReportStrings(res))
}

func BenchmarkTable11(b *testing.B) {
	res := strings_(b)
	for i := 0; i < b.N; i++ {
		for _, m := range res.Table11 {
			b.ReportMetric(m.Summary.Mean, "qerr_mean:"+m.Name)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	res := strings_(b)
	for i := 0; i < b.N; i++ {
		for _, c := range res.Figure8 {
			if len(c.Values) > 0 {
				b.ReportMetric(c.Values[len(c.Values)-1], "final_card_q:"+c.Name)
			}
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	res := strings_(b)
	for i := 0; i < b.N; i++ {
		for name, box := range res.Figure9 {
			b.ReportMetric(box.Card.P50, "card_p50:"+name)
			b.ReportMetric(box.Cost.P50, "cost_p50:"+name)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	res := strings_(b)
	for i := 0; i < b.N; i++ {
		for name, pts := range res.Figure10 {
			if len(pts) > 0 {
				var ratios []float64
				for _, p := range pts {
					if p.Real > 0 {
						ratios = append(ratios, p.Est/p.Real)
					}
				}
				_ = ratios
				b.ReportMetric(float64(len(pts)), "points:"+name)
			}
		}
	}
}

// ---- Table 12: real timed inference loops ----

// timingFixture builds the encoded JOB plans and models once.
type timingFixtureT struct {
	eps       []*feature.EncodedPlan
	model     *core.Model // min-max pooling variant
	modelLSTM *core.Model
	mscnM     *mscn.Model
	feats     []*mscn.Features
}

var (
	onceTiming sync.Once
	timingFix  *timingFixtureT
	timingErr  error
)

func timing(b *testing.B) *timingFixtureT {
	b.Helper()
	onceTiming.Do(func() {
		e := env()
		qs := workload.JOBFull(e.DB, 123, 60)
		samples := e.Labeler.Label(qs)
		enc := feature.NewEncoder(e.Cat, strembed.HashEmbedder{DimN: e.Cfg.StrDim}, true)
		fix := &timingFixtureT{}
		for _, s := range samples {
			ep, err := enc.Encode(s.Plan)
			if err != nil {
				timingErr = err
				return
			}
			fix.eps = append(fix.eps, ep)
		}
		mkCfg := func(pred core.PredModel) core.Config {
			c := core.DefaultConfig()
			c.Hidden, c.EstHidden = e.Cfg.Hidden, e.Cfg.EstHidden
			c.OpEmbed, c.MetaEmbed, c.BitmapEmbed, c.PredEmbed = e.Cfg.Embed, e.Cfg.Embed, e.Cfg.Embed, e.Cfg.Embed
			c.Pred = pred
			return c
		}
		fix.model = core.New(mkCfg(core.PredPool), enc)
		fix.modelLSTM = core.New(mkCfg(core.PredLSTM), enc)
		fix.mscnM = mscn.New(mscn.Config{Hidden: e.Cfg.MSCNWidth, SampleBitmap: true, Seed: 1}, e.Cat)
		for _, s := range samples {
			f, err := fix.mscnM.Featurize(s.Query)
			if err != nil {
				timingErr = err
				return
			}
			fix.feats = append(fix.feats, f)
		}
		timingFix = fix
	})
	if timingErr != nil {
		b.Fatal(timingErr)
	}
	return timingFix
}

func BenchmarkTable12_PostgreSQL(b *testing.B) {
	e := env()
	qs := workload.JOBFull(e.DB, 123, 60)
	samples := e.Labeler.Label(qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		e.PG.EstimateCost(s.Plan)
	}
}

func BenchmarkTable12_MSCN(b *testing.B) {
	fix := timing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.mscnM.EstimateFeatures(fix.feats[i%len(fix.feats)])
	}
}

func BenchmarkTable12_MSCNBatch(b *testing.B) {
	fix := timing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.mscnM.EstimateBatch(fix.feats)
	}
	b.ReportMetric(float64(len(fix.feats)), "queries/op")
}

func BenchmarkTable12_TLSTM(b *testing.B) {
	fix := timing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.modelLSTM.Estimate(fix.eps[i%len(fix.eps)])
	}
}

func BenchmarkTable12_TLSTMBatch(b *testing.B) {
	fix := timing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.modelLSTM.EstimateBatch(fix.eps)
	}
	b.ReportMetric(float64(len(fix.eps)), "queries/op")
}

func BenchmarkTable12_TPool(b *testing.B) {
	fix := timing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.model.Estimate(fix.eps[i%len(fix.eps)])
	}
}

func BenchmarkTable12_TPoolBatch(b *testing.B) {
	fix := timing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.model.EstimateBatch(fix.eps)
	}
	b.ReportMetric(float64(len(fix.eps)), "queries/op")
}

func BenchmarkMemoryPoolWarm(b *testing.B) {
	fix := timing(b)
	sess := core.NewBatchSession(fix.model)
	pool := core.NewBoundedMemoryPool(4096)
	for _, ep := range fix.eps {
		sess.EstimateWithPool(ep, pool)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.EstimateWithPool(fix.eps[i%len(fix.eps)], pool)
	}
	b.ReportMetric(pool.HitRate()*100, "hit%")
}

// BenchmarkLabel labels the daemon's default training corpus (cmd/costestd's
// substrate at -scale 0.03, -seed 42, -queries 240) on one goroutine: the
// planning and execution pass every training boot pays before it trains.
func BenchmarkLabel(b *testing.B) {
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	cat := stats.Collect(db, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	lab := &workload.Labeler{Planner: planner.New(pg.New(cat), db.Schema), Engine: exec.NewEngine(db), Parallelism: 1}
	qs := workload.TrainingNumeric(db, 42, 240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(lab.Label(qs)); got != len(qs) {
			b.Fatalf("%d/%d queries labeled", got, len(qs))
		}
	}
}

// ---- Design ablations (README "Design ablations") ----

// ablationTrain trains a small model on seed's workload and initialization
// under one design change and returns its last-epoch validation q-errors per
// head.
func ablationTrain(b *testing.B, seed int64, mutate func(*core.Config)) (cost, card metrics.Summary) {
	b.Helper()
	e := env()
	qs := workload.TrainingStrings(e.DB, 320+seed, 150)
	samples := e.Labeler.Label(qs)
	train, valid := workload.Split(samples, 0.85)
	enc := feature.NewEncoder(e.Cat, strembed.HashEmbedder{DimN: e.Cfg.StrDim}, true)
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.EstHidden = 16, 8
	cfg.OpEmbed, cfg.MetaEmbed, cfg.BitmapEmbed, cfg.PredEmbed = 8, 8, 8, 8
	cfg.LearnRate = 0.005
	cfg.Seed = seed
	mutate(&cfg)
	model := core.New(cfg, enc)
	var trE, vaE []*feature.EncodedPlan
	for _, s := range train {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			b.Fatal(err)
		}
		trE = append(trE, ep)
	}
	for _, s := range valid {
		ep, err := enc.Encode(s.Plan)
		if err != nil {
			b.Fatal(err)
		}
		vaE = append(vaE, ep)
	}
	pt := core.NewParallelTrainer(model, 1)
	defer pt.Close()
	pt.Fit(trE, vaE, 6, 16, 1, nil)
	var costQ, cardQ []float64
	for i, est := range model.EstimateBatch(vaE) {
		costQ = append(costQ, nn.QError(est.Cost, vaE[i].Cost, nn.CostFloor))
		cardQ = append(cardQ, nn.QError(est.Card, vaE[i].Card, nn.CardFloor))
	}
	return metrics.Summarize(costQ), metrics.Summarize(cardQ)
}

// BenchmarkAblations trains each design pair — the paper's setting against
// its alternative — on seeds 1-5 and logs README's "Design ablations" table:
// per seed, each head's mean and p95 validation q-error as default /
// alternative. A seed goes to the setting with the lower product of the two
// heads' means (each head's relative error counts equally); the
// alternative's code goes only where the default wins at least 4 of 5 seeds.
func BenchmarkAblations(b *testing.B) {
	pairs := []struct {
		key, name string
		def, alt  func(*core.Config)
	}{
		{"loss", "loss: q-error / MSLE", func(c *core.Config) { c.UseQError = true }, func(c *core.Config) { c.UseQError = false }},
		{"pooling", "predicates: min-max / mean pooling", func(c *core.Config) { c.Pred = core.PredPool }, func(c *core.Config) { c.Pred = core.PredPoolMean }},
		{"supervision", "supervision: every node / root only", func(c *core.Config) { c.SubplanLoss = true }, func(c *core.Config) { c.SubplanLoss = false }},
	}
	for i := 0; i < b.N; i++ {
		var t strings.Builder
		t.WriteString("\n| pair | seed | cost mean | cost p95 | card mean | card p95 | seed won by |\n|---|---|---|---|---|---|---|\n")
		for _, p := range pairs {
			wins := 0
			for seed := int64(1); seed <= 5; seed++ {
				dc, dd := ablationTrain(b, seed, p.def)
				ac, ad := ablationTrain(b, seed, p.alt)
				won := "alternative"
				if dc.Mean*dd.Mean < ac.Mean*ad.Mean {
					won = "default"
					wins++
				}
				fmt.Fprintf(&t, "| %s | %d | %.4g / %.4g | %.4g / %.4g | %.4g / %.4g | %.4g / %.4g | %s |\n",
					p.name, seed, dc.Mean, ac.Mean, dc.P95, ac.P95, dd.Mean, ad.Mean, dd.P95, ad.P95, won)
			}
			b.ReportMetric(float64(wins), "default_wins:"+p.key)
		}
		b.Log(t.String())
	}
}
