package experiments

import (
	"fmt"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/query"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// MethodErrors is one method's q-errors over one workload.
type MethodErrors struct {
	Name    string
	Errors  []float64
	Summary metrics.Summary

	points []CostPoint // the (true, estimated) pair behind each error
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

// RunNumeric trains every numeric-workload method and evaluates Tables 7-8
// and Figure 7.
func (e *Env) RunNumeric() (*NumericResults, error) {
	cfg := e.Cfg
	train, valid, err := e.labelSplit("numeric training",
		workload.TrainingNumeric(e.DB, cfg.Seed+10, cfg.TrainNumeric), cfg.TrainNumeric/2)
	if err != nil {
		return nil, err
	}
	rows, curves, err := e.numericMethods(train, valid)
	if err != nil {
		return nil, err
	}
	res := &NumericResults{
		Figure7a: curvesNamed(curves, "MSCNNSCard", "MSCNCard", "TLSTMNSCard", "TLSTMCard"),
		Figure7b: curvesNamed(curves, "TLSTMCost", "TLSTMMCost"),
	}

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
		card, cost, err := score(rows, samples)
		if err != nil {
			return nil, err
		}
		res.Table7 = append(res.Table7, WorkloadTable{Workload: tw.name, Methods: card})
		res.Table8 = append(res.Table8, WorkloadTable{Workload: tw.name, Methods: cost})
	}
	return res, nil
}

// numericMethods trains the numeric suite's learned models on train and
// returns the method table of Tables 7 and 8, in row order, with the
// validation curve of every learned row. The PGCost row reads a copy of the
// environment's estimator calibrated on train.
func (e *Env) numericMethods(train, valid []*workload.Labeled) ([]method, []Curve, error) {
	encS := feature.NewEncoder(e.Cat, strembed.ZeroEncoder{}, true)   // with sample bitmap
	encNS := feature.NewEncoder(e.Cat, strembed.ZeroEncoder{}, false) // without
	var curves []Curve
	var err error // the first failed fit; later fits are skipped
	// Numeric methods use the tree-LSTM predicate model (Table 6).
	tree := func(name string, h head, rep core.RepModel, target core.Target, enc *feature.Encoder) method {
		if err != nil {
			return method{}
		}
		model, hist, ferr := e.fitTree(treeSpec{core.PredLSTM, rep, target, enc}, train, valid)
		err = ferr
		curves = append(curves, curveOf(name, hist, h.valid))
		return treeRow(name, h, model)
	}
	mscnRow := func(name string, h head, sampleBitmap bool) method {
		if err != nil {
			return method{}
		}
		row, c, ferr := e.fitMSCN(name, h, sampleBitmap, train, valid)
		err = ferr
		curves = append(curves, c)
		return row
	}
	rows := []method{
		pgRow("PGCard", cardHead, e.PG),
		mscnRow("MSCNCard", cardHead, true),
		mscnRow("MSCNNSCard", cardHead, false),
		tree("TLSTMNSCard", cardHead, core.RepLSTM, core.TargetCard, encNS),
		tree("TNNCard", cardHead, core.RepNN, core.TargetCard, encS),
		tree("TLSTMCard", cardHead, core.RepLSTM, core.TargetCard, encS),
		pgRow("PGCost", costHead, e.PG.Calibrated(plansOf(train))),
		mscnRow("MSCNCost", costHead, true),
		tree("TLSTMCost", costHead, core.RepLSTM, core.TargetCost, encS),
		tree("TNNMCost", costHead, core.RepNN, core.TargetBoth, encS),
		tree("TLSTMMCost", costHead, core.RepLSTM, core.TargetBoth, encS),
	}
	return rows, curves, err
}
