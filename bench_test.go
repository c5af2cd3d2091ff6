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
//	BenchmarkAblation_*  design-choice ablations from DESIGN.md
package costest_test

import (
	"sync"
	"testing"

	"costest/internal/core"
	"costest/internal/experiments"
	"costest/internal/feature"
	"costest/internal/mscn"
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
	pool := core.NewMemoryPool()
	for _, ep := range fix.eps {
		fix.model.EstimateWithPool(ep, pool)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.model.EstimateWithPool(fix.eps[i%len(fix.eps)], pool)
	}
	b.ReportMetric(pool.HitRate()*100, "hit%")
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// ablationFixture trains small models under different single design
// changes and reports final validation q-errors.
func ablationTrain(b *testing.B, mutate func(*core.Config)) (costQ, cardQ float64) {
	b.Helper()
	e := env()
	qs := workload.TrainingStrings(e.DB, 321, 150)
	samples := e.Labeler.Label(qs)
	train, valid := workload.Split(samples, 0.85)
	enc := feature.NewEncoder(e.Cat, strembed.HashEmbedder{DimN: e.Cfg.StrDim}, true)
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.EstHidden = 16, 8
	cfg.OpEmbed, cfg.MetaEmbed, cfg.BitmapEmbed, cfg.PredEmbed = 8, 8, 8, 8
	cfg.LearnRate = 0.005
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
	hist := pt.Fit(trE, vaE, 6, 16, 1, nil)
	last := hist[len(hist)-1]
	return last.ValidCost, last.ValidCard
}

func BenchmarkAblation_LossQError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost, card := ablationTrain(b, func(c *core.Config) { c.UseQError = true })
		b.ReportMetric(cost, "valid_cost_q")
		b.ReportMetric(card, "valid_card_q")
	}
}

func BenchmarkAblation_LossMSLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost, card := ablationTrain(b, func(c *core.Config) { c.UseQError = false })
		b.ReportMetric(cost, "valid_cost_q")
		b.ReportMetric(card, "valid_card_q")
	}
}

func BenchmarkAblation_MinMaxPooling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost, card := ablationTrain(b, func(c *core.Config) { c.Pred = core.PredPool })
		b.ReportMetric(cost, "valid_cost_q")
		b.ReportMetric(card, "valid_card_q")
	}
}

func BenchmarkAblation_MeanPooling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost, card := ablationTrain(b, func(c *core.Config) { c.Pred = core.PredPoolMean })
		b.ReportMetric(cost, "valid_cost_q")
		b.ReportMetric(card, "valid_card_q")
	}
}

func BenchmarkAblation_SubplanLossOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost, card := ablationTrain(b, func(c *core.Config) { c.SubplanLoss = true })
		b.ReportMetric(cost, "valid_cost_q")
		b.ReportMetric(card, "valid_card_q")
	}
}

func BenchmarkAblation_SubplanLossOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost, card := ablationTrain(b, func(c *core.Config) { c.SubplanLoss = false })
		b.ReportMetric(cost, "valid_cost_q")
		b.ReportMetric(card, "valid_card_q")
	}
}
