package experiments

import (
	"fmt"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/query"
	"costest/internal/sqlpred"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// CostPoint pairs a real cost with a method's estimate (Figure 10).
type CostPoint struct {
	Real float64
	Est  float64
}

// StringResults reproduces Section 6.3 plus the efficiency study.
type StringResults struct {
	Table10  []MethodErrors     // cardinality errors on the JOB workload
	Table11  []MethodErrors     // cost errors on the JOB workload
	Figure8  []Curve            // single-table card validation curves
	Figure9  map[string]BoxPair // card+cost box stats per method
	Figure10 map[string][]CostPoint
	Table12  []TimingRow
}

// BoxPair holds Figure 9's card and cost boxes for one method.
type BoxPair struct {
	Card metrics.BoxStats
	Cost metrics.BoxStats
}

// TimingRow is one Table 12 entry.
type TimingRow struct {
	Method string
	Batch  bool
	PerMsQ float64 // milliseconds per query
}

// stringModels bundles the string-workload method ladder.
type stringModels struct {
	encHash *feature.Encoder
	encNR   *feature.Encoder
	encR    *feature.Encoder

	tlstmHash  *core.Model // TLSTMHashMCost/Card (multitask)
	tlstmEmbNR *core.Model
	tlstmEmbR  *core.Model
	tpoolEmbR  *core.Model
}

// RunStrings trains the string-predicate ladder and evaluates Tables 10-12
// and Figures 8-10.
func (e *Env) RunStrings() (*StringResults, error) {
	cfg := e.Cfg

	trainQ := workload.TrainingStrings(e.DB, cfg.Seed+30, cfg.TrainStrings)
	labeled := e.Labeler.Label(trainQ)
	if len(labeled) < cfg.TrainStrings/3 {
		return nil, fmt.Errorf("experiments: only %d/%d string training queries labeled", len(labeled), cfg.TrainStrings)
	}
	train, valid := workload.Split(labeled, 0.9)

	// String encoders are built from the training workload's literals.
	ws := CollectWorkloadStrings(queriesOf(train))
	embCfg := strembed.DefaultConfig()
	embCfg.Dim = cfg.StrDim
	embCfg.MaxValuesPerColumn = 4000
	embCfg.SkipGram.Epochs = 2
	embCfg.SkipGram.Seed = cfg.Seed
	embCfg.UseRules = false
	embNR := strembed.Build(e.DB, ws, embCfg)
	embCfg.UseRules = true
	embR := strembed.Build(e.DB, ws, embCfg)

	m := &stringModels{
		encHash: feature.NewEncoder(e.Cat, strembed.HashEmbedder{DimN: cfg.StrDim}, true),
		encNR:   feature.NewEncoder(e.Cat, embNR, true),
		encR:    feature.NewEncoder(e.Cat, embR, true),
	}

	fit := func(pred core.PredModel, enc *feature.Encoder) (*core.Model, error) {
		model := core.New(e.coreConfig(pred, core.RepLSTM, core.TargetBoth), enc)
		tr, err := encodeAll(enc, train)
		if err != nil {
			return nil, err
		}
		va, err := encodeAll(enc, valid)
		if err != nil {
			return nil, err
		}
		e.fitModel(model, tr, va)
		return model, nil
	}
	var err error
	if m.tlstmHash, err = fit(core.PredLSTM, m.encHash); err != nil {
		return nil, err
	}
	if m.tlstmEmbNR, err = fit(core.PredLSTM, m.encNR); err != nil {
		return nil, err
	}
	if m.tlstmEmbR, err = fit(core.PredLSTM, m.encR); err != nil {
		return nil, err
	}
	if m.tpoolEmbR, err = fit(core.PredPool, m.encR); err != nil {
		return nil, err
	}

	pgCal := e.PG.Calibrated(plansOf(train))

	jobQ := workload.JOBFull(e.DB, cfg.Seed+40, cfg.TestJOB)
	jobSamples := e.Labeler.Label(jobQ)
	if len(jobSamples) == 0 {
		return nil, fmt.Errorf("experiments: no labelable JOB queries")
	}

	res := &StringResults{
		Figure9:  map[string]BoxPair{},
		Figure10: map[string][]CostPoint{},
	}
	if err := e.evalStrings(m, pgCal, jobSamples, res); err != nil {
		return nil, err
	}
	if res.Figure8, err = e.runSingleTable(); err != nil {
		return nil, err
	}
	if res.Table12, err = e.runTiming(m, jobSamples); err != nil {
		return nil, err
	}
	return res, nil
}

func queriesOf(samples []*workload.Labeled) []*query.Query {
	out := make([]*query.Query, len(samples))
	for i, s := range samples {
		out[i] = s.Query
	}
	return out
}

func encodeAll(enc *feature.Encoder, samples []*workload.Labeled) ([]*feature.EncodedPlan, error) {
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

// CollectWorkloadStrings extracts the string literals of a query set, scoped
// to their columns and classified by match kind — the S_W of Section 5.
func CollectWorkloadStrings(qs []*query.Query) []strembed.WorkloadString {
	var out []strembed.WorkloadString
	seen := map[string]bool{}
	add := func(w strembed.WorkloadString) {
		key := w.Table + "|" + w.Column + "|" + w.S + "|" + fmt.Sprint(w.Kind)
		if w.S != "" && !seen[key] {
			seen[key] = true
			out = append(out, w)
		}
	}
	for _, q := range qs {
		for _, f := range q.Filters {
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
					add(strembed.WorkloadString{Table: a.Table, Column: a.Column,
						S: core, Kind: kind})
				}
			})
		}
	}
	return out
}

// evalStrings fills Tables 10-11 and Figures 9-10 from the JOB samples; the
// PGCost row reads pgCal, the calibrated copy of the environment's estimator.
func (e *Env) evalStrings(m *stringModels, pgCal *pg.Estimator, samples []*workload.Labeled, res *StringResults) error {
	type ladder struct {
		name  string
		model *core.Model
		enc   *feature.Encoder
	}
	methods := []ladder{
		{"TLSTMHash", m.tlstmHash, m.encHash},
		{"TLSTMEmbNR", m.tlstmEmbNR, m.encNR},
		{"TLSTMEmbR", m.tlstmEmbR, m.encR},
		{"TPoolEmbR", m.tpoolEmbR, m.encR},
	}

	pgCardE := make([]float64, 0, len(samples))
	pgCostE := make([]float64, 0, len(samples))
	cardE := make(map[string][]float64)
	costE := make(map[string][]float64)
	for _, s := range samples {
		p := s.Plan.Clone()
		pgCardE = append(pgCardE, nn.QError(e.PG.EstimateCard(p), s.Card, nn.CardFloor))
		pgCost := pgCal.EstimateCost(p)
		pgCostE = append(pgCostE, nn.QError(pgCost, s.Cost, nn.CostFloor))
		res.Figure10["PGCost"] = append(res.Figure10["PGCost"], CostPoint{Real: s.Cost, Est: pgCost})

		for _, md := range methods {
			ep, err := md.enc.Encode(s.Plan)
			if err != nil {
				return err
			}
			cost, card := md.model.Estimate(ep)
			cardE[md.name] = append(cardE[md.name], nn.QError(card, s.Card, nn.CardFloor))
			costE[md.name] = append(costE[md.name], nn.QError(cost, s.Cost, nn.CostFloor))
			if md.name == "TLSTMEmbNR" || md.name == "TPoolEmbR" {
				res.Figure10[md.name+"MCost"] = append(res.Figure10[md.name+"MCost"],
					CostPoint{Real: s.Cost, Est: cost})
			}
		}
	}

	mk := func(name string, errs []float64) MethodErrors {
		return MethodErrors{Name: name, Errors: errs, Summary: metrics.Summarize(errs)}
	}
	res.Table10 = []MethodErrors{
		mk("PGCard", pgCardE),
		mk("TLSTMHashCard", cardE["TLSTMHash"]),
		mk("TLSTMEmbNRCard", cardE["TLSTMEmbNR"]),
		mk("TLSTMEmbRCard", cardE["TLSTMEmbR"]),
		mk("TPoolEmbRCard", cardE["TPoolEmbR"]),
	}
	res.Table11 = []MethodErrors{
		mk("PGCost", pgCostE),
		mk("TLSTMHashMCost", costE["TLSTMHash"]),
		mk("TLSTMEmbNRMCost", costE["TLSTMEmbNR"]),
		mk("TLSTMEmbRMCost", costE["TLSTMEmbR"]),
		mk("TPoolEmbRMCost", costE["TPoolEmbR"]),
	}

	res.Figure9["PG"] = BoxPair{Card: metrics.Box(pgCardE), Cost: metrics.Box(pgCostE)}
	res.Figure9["TLSTMHashM"] = BoxPair{Card: metrics.Box(cardE["TLSTMHash"]), Cost: metrics.Box(costE["TLSTMHash"])}
	res.Figure9["TPoolEmbRM"] = BoxPair{Card: metrics.Box(cardE["TPoolEmbR"]), Cost: metrics.Box(costE["TPoolEmbR"])}
	return nil
}

// runSingleTable reproduces Figure 8: per-epoch card validation error of
// the four string-predicate variants on a single-table workload.
func (e *Env) runSingleTable() ([]Curve, error) {
	cfg := e.Cfg
	qs := workload.SingleTableStrings(e.DB, cfg.Seed+50, cfg.SingleTable)
	labeled := e.Labeler.Label(qs)
	if len(labeled) < cfg.SingleTable/3 {
		return nil, fmt.Errorf("experiments: only %d single-table queries labeled", len(labeled))
	}
	train, valid := workload.Split(labeled, 0.9)

	ws := CollectWorkloadStrings(queriesOf(train))
	embCfg := strembed.DefaultConfig()
	embCfg.Dim = cfg.StrDim
	embCfg.MaxValuesPerColumn = 4000
	embCfg.SkipGram.Epochs = 2
	embCfg.SkipGram.Seed = cfg.Seed
	embCfg.UseRules = false
	embNR := strembed.Build(e.DB, ws, embCfg)
	embCfg.UseRules = true
	embR := strembed.Build(e.DB, ws, embCfg)

	variants := []struct {
		name string
		pred core.PredModel
		enc  *feature.Encoder
	}{
		{"TLSTMHashCard", core.PredLSTM, feature.NewEncoder(e.Cat, strembed.HashEmbedder{DimN: cfg.StrDim}, true)},
		{"TLSTMEmbNRCard", core.PredLSTM, feature.NewEncoder(e.Cat, embNR, true)},
		{"TLSTMEmbRCard", core.PredLSTM, feature.NewEncoder(e.Cat, embR, true)},
		{"TPoolEmbRCard", core.PredPool, feature.NewEncoder(e.Cat, embR, true)},
	}
	var curves []Curve
	for _, v := range variants {
		tr, err := encodeAll(v.enc, train)
		if err != nil {
			return nil, err
		}
		va, err := encodeAll(v.enc, valid)
		if err != nil {
			return nil, err
		}
		model := core.New(e.coreConfig(v.pred, core.RepLSTM, core.TargetCard), v.enc)
		hist := e.fitModel(model, tr, va)
		vals := make([]float64, len(hist))
		for i, h := range hist {
			vals[i] = h.ValidCard
		}
		curves = append(curves, Curve{Name: v.name, Values: vals})
	}
	return curves, nil
}
