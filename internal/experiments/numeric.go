package experiments

import (
	"fmt"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/mscn"
	"costest/internal/pg"
	"costest/internal/plan"
	"costest/internal/query"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// MethodErrors is one method's q-errors over one workload.
type MethodErrors struct {
	Name    string
	Errors  []float64
	Summary metrics.Summary
}

// WorkloadTable is one workload's method ladder (one block of Table 7/8).
type WorkloadTable struct {
	Workload string
	Methods  []MethodErrors
}

// Curve is a named per-epoch series (Figures 7 and 8).
type Curve struct {
	Name   string
	Values []float64
}

// NumericResults reproduces Section 6.2.
type NumericResults struct {
	Table7   []WorkloadTable // cardinality errors: JOB-light, Synthetic, Scale
	Table8   []WorkloadTable // cost errors
	Figure7a []Curve         // card validation error vs epoch
	Figure7b []Curve         // cost validation error vs epoch
}

// numericModels bundles everything trained for the numeric suite.
type numericModels struct {
	encS  *feature.Encoder // with sample bitmap
	encNS *feature.Encoder // without

	tlstmCard   *core.Model // TLSTMCard: LSTM rep, single-task card, samples
	tlstmNSCard *core.Model // TLSTMNSCard: no samples
	tnnCard     *core.Model // TNNCard: NN rep
	tlstmCost   *core.Model // TLSTMCost: single-task cost
	tlstmMCost  *core.Model // TLSTMMCost: multitask
	tnnMCost    *core.Model // TNNMCost: NN rep, multitask

	mscnCard   *mscn.Model
	mscnNSCard *mscn.Model
	mscnCost   *mscn.Model

	fig7a []Curve
	fig7b []Curve
}

// RunNumeric trains every numeric-workload method and evaluates Tables 7-8
// and Figure 7.
func (e *Env) RunNumeric() (*NumericResults, error) {
	cfg := e.Cfg

	trainQ := workload.TrainingNumeric(e.DB, cfg.Seed+10, cfg.TrainNumeric)
	labeled := e.Labeler.Label(trainQ)
	if len(labeled) < cfg.TrainNumeric/2 {
		return nil, fmt.Errorf("experiments: only %d/%d numeric training queries labeled", len(labeled), cfg.TrainNumeric)
	}
	train, valid := workload.Split(labeled, 0.9)

	m, err := e.trainNumericModels(train, valid)
	if err != nil {
		return nil, err
	}
	pgCal := e.PG.Calibrated(plansOf(train))

	res := &NumericResults{Figure7a: m.fig7a, Figure7b: m.fig7b}

	tests := []struct {
		name string
		qs   []*query.Query
	}{
		{"JOB-light", workload.JOBLight(e.DB, cfg.Seed+20, cfg.TestJOBLight)},
		{"Synthetic", workload.Synthetic(e.DB, cfg.Seed+21, cfg.TestSynthetic)},
		{"Scale", workload.Scale(e.DB, cfg.Seed+22, cfg.TestScale)},
	}
	for _, tw := range tests {
		samples := e.Labeler.Label(tw.qs)
		if len(samples) == 0 {
			return nil, fmt.Errorf("experiments: workload %s produced no labeled queries", tw.name)
		}
		card, cost, err := e.evalNumeric(m, pgCal, samples)
		if err != nil {
			return nil, err
		}
		res.Table7 = append(res.Table7, WorkloadTable{Workload: tw.name, Methods: card})
		res.Table8 = append(res.Table8, WorkloadTable{Workload: tw.name, Methods: cost})
	}
	return res, nil
}

func plansOf(samples []*workload.Labeled) []*plan.Node {
	out := make([]*plan.Node, len(samples))
	for i, s := range samples {
		out[i] = s.Plan
	}
	return out
}

// trainNumericModels trains the six tree models and three MSCN variants.
func (e *Env) trainNumericModels(train, valid []*workload.Labeled) (*numericModels, error) {
	cfg := e.Cfg
	m := &numericModels{
		encS:  feature.NewEncoder(e.Cat, strembed.ZeroEncoder{}, true),
		encNS: feature.NewEncoder(e.Cat, strembed.ZeroEncoder{}, false),
	}

	encode := func(enc *feature.Encoder, samples []*workload.Labeled) ([]*feature.EncodedPlan, error) {
		out := make([]*feature.EncodedPlan, 0, len(samples))
		for _, s := range samples {
			ep, err := enc.Encode(s.Plan)
			if err != nil {
				return nil, err
			}
			out = append(out, ep)
		}
		return out, nil
	}
	trS, err := encode(m.encS, train)
	if err != nil {
		return nil, err
	}
	vaS, err := encode(m.encS, valid)
	if err != nil {
		return nil, err
	}
	trNS, err := encode(m.encNS, train)
	if err != nil {
		return nil, err
	}
	vaNS, err := encode(m.encNS, valid)
	if err != nil {
		return nil, err
	}

	fit := func(model *core.Model, tr, va []*feature.EncodedPlan) []core.EpochStats {
		return e.fitModel(model, tr, va)
	}
	cardCurve := func(h []core.EpochStats) []float64 {
		out := make([]float64, len(h))
		for i, s := range h {
			out[i] = s.ValidCard
		}
		return out
	}
	costCurve := func(h []core.EpochStats) []float64 {
		out := make([]float64, len(h))
		for i, s := range h {
			out[i] = s.ValidCost
		}
		return out
	}

	// Numeric methods use the tree-LSTM predicate model (Table 6).
	m.tlstmCard = core.New(e.coreConfig(core.PredLSTM, core.RepLSTM, core.TargetCard), m.encS)
	hTL := fit(m.tlstmCard, trS, vaS)
	m.tlstmNSCard = core.New(e.coreConfig(core.PredLSTM, core.RepLSTM, core.TargetCard), m.encNS)
	hTLNS := fit(m.tlstmNSCard, trNS, vaNS)
	m.tnnCard = core.New(e.coreConfig(core.PredLSTM, core.RepNN, core.TargetCard), m.encS)
	fit(m.tnnCard, trS, vaS)
	m.tlstmCost = core.New(e.coreConfig(core.PredLSTM, core.RepLSTM, core.TargetCost), m.encS)
	hTC := fit(m.tlstmCost, trS, vaS)
	m.tlstmMCost = core.New(e.coreConfig(core.PredLSTM, core.RepLSTM, core.TargetBoth), m.encS)
	hTM := fit(m.tlstmMCost, trS, vaS)
	m.tnnMCost = core.New(e.coreConfig(core.PredLSTM, core.RepNN, core.TargetBoth), m.encS)
	fit(m.tnnMCost, trS, vaS)

	// MSCN variants.
	mkMSCN := func(sample bool, target func(*workload.Labeled) float64) (*mscn.Model, []mscn.EpochStats, error) {
		model := mscn.New(mscn.Config{
			Hidden: cfg.MSCNWidth, SampleBitmap: sample,
			LearnRate: 0.003, GradClip: 5, Seed: cfg.Seed,
		}, e.Cat)
		var trF, vaF []*mscn.Sample
		for _, s := range train {
			f, err := model.Featurize(s.Query)
			if err != nil {
				return nil, nil, err
			}
			trF = append(trF, &mscn.Sample{F: f, Target: target(s)})
		}
		for _, s := range valid {
			f, err := model.Featurize(s.Query)
			if err != nil {
				return nil, nil, err
			}
			vaF = append(vaF, &mscn.Sample{F: f, Target: target(s)})
		}
		tr := mscn.NewTrainer(model)
		hist := tr.Fit(trF, vaF, cfg.Epochs, cfg.BatchSize)
		return model, hist, nil
	}
	cardOf := func(s *workload.Labeled) float64 { return s.Card }
	costOf := func(s *workload.Labeled) float64 { return s.Cost }

	var hist []mscn.EpochStats
	if m.mscnCard, hist, err = mkMSCN(true, cardOf); err != nil {
		return nil, err
	}
	mscnCardCurve := mscnCurve(hist)
	if m.mscnNSCard, hist, err = mkMSCN(false, cardOf); err != nil {
		return nil, err
	}
	mscnNSCurve := mscnCurve(hist)
	if m.mscnCost, _, err = mkMSCN(true, costOf); err != nil {
		return nil, err
	}

	m.fig7a = []Curve{
		{Name: "MSCNNSCard", Values: mscnNSCurve},
		{Name: "MSCNCard", Values: mscnCardCurve},
		{Name: "TLSTMNSCard", Values: cardCurve(hTLNS)},
		{Name: "TLSTMCard", Values: cardCurve(hTL)},
	}
	m.fig7b = []Curve{
		{Name: "TLSTMCost", Values: costCurve(hTC)},
		{Name: "TLSTMMCost", Values: costCurve(hTM)},
	}
	return m, nil
}

func mscnCurve(h []mscn.EpochStats) []float64 {
	out := make([]float64, len(h))
	for i, s := range h {
		out[i] = s.ValidQ
	}
	return out
}

// evalNumeric computes the card (Table 7) and cost (Table 8) ladders on one
// labeled test workload; the PGCost row reads pgCal, the calibrated copy of
// the environment's estimator.
func (e *Env) evalNumeric(m *numericModels, pgCal *pg.Estimator, samples []*workload.Labeled) (card, cost []MethodErrors, err error) {
	n := len(samples)
	pgCard := make([]float64, 0, n)
	pgCost := make([]float64, 0, n)
	mscnCardE := make([]float64, 0, n)
	mscnNSCardE := make([]float64, 0, n)
	mscnCostE := make([]float64, 0, n)
	tlstmCardE := make([]float64, 0, n)
	tlstmNSCardE := make([]float64, 0, n)
	tnnCardE := make([]float64, 0, n)
	tlstmCostE := make([]float64, 0, n)
	tlstmMCostE := make([]float64, 0, n)
	tnnMCostE := make([]float64, 0, n)

	for _, s := range samples {
		p := s.Plan.Clone()
		pgCard = append(pgCard, metrics.QError(e.PG.EstimateCard(p), s.Card))
		pgCost = append(pgCost, metrics.QError(pgCal.EstimateCost(p), s.Cost))

		if est, err2 := m.mscnCard.Estimate(s.Query); err2 == nil {
			mscnCardE = append(mscnCardE, metrics.QError(est, s.Card))
		}
		if est, err2 := m.mscnNSCard.Estimate(s.Query); err2 == nil {
			mscnNSCardE = append(mscnNSCardE, metrics.QError(est, s.Card))
		}
		if est, err2 := m.mscnCost.Estimate(s.Query); err2 == nil {
			mscnCostE = append(mscnCostE, metrics.QError(est, s.Cost))
		}

		epS, err2 := m.encS.Encode(s.Plan)
		if err2 != nil {
			return nil, nil, err2
		}
		epNS, err2 := m.encNS.Encode(s.Plan)
		if err2 != nil {
			return nil, nil, err2
		}
		_, c := m.tlstmCard.Estimate(epS)
		tlstmCardE = append(tlstmCardE, metrics.QError(c, s.Card))
		_, c = m.tlstmNSCard.Estimate(epNS)
		tlstmNSCardE = append(tlstmNSCardE, metrics.QError(c, s.Card))
		_, c = m.tnnCard.Estimate(epS)
		tnnCardE = append(tnnCardE, metrics.QError(c, s.Card))

		co, _ := m.tlstmCost.Estimate(epS)
		tlstmCostE = append(tlstmCostE, metrics.QError(co, s.Cost))
		co, _ = m.tlstmMCost.Estimate(epS)
		tlstmMCostE = append(tlstmMCostE, metrics.QError(co, s.Cost))
		co, _ = m.tnnMCost.Estimate(epS)
		tnnMCostE = append(tnnMCostE, metrics.QError(co, s.Cost))
	}

	mk := func(name string, errs []float64) MethodErrors {
		return MethodErrors{Name: name, Errors: errs, Summary: metrics.Summarize(errs)}
	}
	card = []MethodErrors{
		mk("PGCard", pgCard),
		mk("MSCNCard", mscnCardE),
		mk("MSCNNSCard", mscnNSCardE),
		mk("TLSTMNSCard", tlstmNSCardE),
		mk("TNNCard", tnnCardE),
		mk("TLSTMCard", tlstmCardE),
	}
	cost = []MethodErrors{
		mk("PGCost", pgCost),
		mk("MSCNCost", mscnCostE),
		mk("TLSTMCost", tlstmCostE),
		mk("TNNMCost", tnnMCostE),
		mk("TLSTMMCost", tlstmMCostE),
	}
	return card, cost, nil
}
