package experiments

import (
	"fmt"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/query"
	"costest/internal/sqlpred"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// CostPoint pairs a true value with a method's estimate of it; Figure 10
// plots the cost rows'.
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

// RunStrings trains the string-predicate ladder and evaluates Tables 10-12
// and Figures 8-10.
func (e *Env) RunStrings() (*StringResults, error) {
	cfg := e.Cfg
	train, valid, err := e.labelSplit("string training",
		workload.TrainingStrings(e.DB, cfg.Seed+30, cfg.TrainStrings), cfg.TrainStrings/3)
	if err != nil {
		return nil, err
	}

	// Every ladder model is multitask: it fills one row of each table.
	rows := []method{pgRow("PGCard", cardHead, e.PG), pgRow("PGCost", costHead, e.PG.Calibrated(plansOf(train)))}
	var models []*core.Model
	for _, v := range e.stringLadder(train, core.TargetBoth) {
		model, _, err := e.fitTree(v.spec, train, valid)
		if err != nil {
			return nil, err
		}
		models = append(models, model)
		rows = append(rows, treeRow(v.name+"Card", cardHead, model), treeRow(v.name+"MCost", costHead, model))
	}

	jobSamples := e.Labeler.Label(workload.JOBFull(e.DB, cfg.Seed+40, cfg.TestJOB))
	if len(jobSamples) == 0 {
		return nil, fmt.Errorf("experiments: no labelable JOB queries")
	}
	res := &StringResults{Figure9: map[string]BoxPair{}, Figure10: map[string][]CostPoint{}}
	if res.Table10, res.Table11, err = score(rows, jobSamples); err != nil {
		return nil, err
	}
	// Figures 9 and 10 take their rows from the scored tables.
	for _, f := range []struct{ name, card, cost string }{
		{"PG", "PGCard", "PGCost"},
		{"TLSTMHashM", "TLSTMHashCard", "TLSTMHashMCost"},
		{"TPoolEmbRM", "TPoolEmbRCard", "TPoolEmbRMCost"},
	} {
		res.Figure9[f.name] = BoxPair{
			Card: metrics.Box(named(res.Table10, f.card).Errors),
			Cost: metrics.Box(named(res.Table11, f.cost).Errors),
		}
	}
	for _, name := range []string{"PGCost", "TLSTMEmbNRMCost", "TPoolEmbRMCost"} {
		res.Figure10[name] = named(res.Table11, name).points
	}

	if res.Figure8, err = e.runSingleTable(); err != nil {
		return nil, err
	}
	// Table 12 times the ladder's two ruled-embedder models: TLSTM and TPool.
	if res.Table12, err = e.runTiming(jobSamples, models[2], models[3]); err != nil {
		return nil, err
	}
	return res, nil
}

// variant is one rung of the string-predicate ladder: a row-name stem and
// the tree model it names.
type variant struct {
	name string
	spec treeSpec
}

// stringLadder returns the string-predicate ladder of Section 6.3 for
// target, its string embedders built from train's literals: hashing, the
// embedder without rules and the embedder with them behind the tree-LSTM
// predicate model, then the ruled embedder behind min-max pooling.
func (e *Env) stringLadder(train []*workload.Labeled, target core.Target) []variant {
	ws := CollectWorkloadStrings(queriesOf(train))
	embCfg := strembed.Config{Dim: e.Cfg.StrDim, Seed: e.Cfg.Seed}
	encNR := feature.NewEncoder(e.Cat, strembed.Build(e.DB, ws, embCfg), true)
	embCfg.UseRules = true
	encR := feature.NewEncoder(e.Cat, strembed.Build(e.DB, ws, embCfg), true)
	encHash := feature.NewEncoder(e.Cat, strembed.HashEmbedder{DimN: e.Cfg.StrDim}, true)
	return []variant{
		{"TLSTMHash", treeSpec{core.PredLSTM, core.RepLSTM, target, encHash}},
		{"TLSTMEmbNR", treeSpec{core.PredLSTM, core.RepLSTM, target, encNR}},
		{"TLSTMEmbR", treeSpec{core.PredLSTM, core.RepLSTM, target, encR}},
		{"TPoolEmbR", treeSpec{core.PredPool, core.RepLSTM, target, encR}},
	}
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

// runSingleTable reproduces Figure 8: per-epoch card validation error of
// the string-predicate ladder on a single-table workload.
func (e *Env) runSingleTable() ([]Curve, error) {
	cfg := e.Cfg
	train, valid, err := e.labelSplit("single-table",
		workload.SingleTableStrings(e.DB, cfg.Seed+50, cfg.SingleTable), cfg.SingleTable/3)
	if err != nil {
		return nil, err
	}
	var curves []Curve
	for _, v := range e.stringLadder(train, core.TargetCard) {
		_, hist, err := e.fitTree(v.spec, train, valid)
		if err != nil {
			return nil, err
		}
		curves = append(curves, curveOf(v.name+"Card", hist, cardHead.valid))
	}
	return curves, nil
}
