package experiments

import (
	"errors"
	"fmt"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/mscn"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/plan"
	"costest/internal/query"
	"costest/internal/workload"
)

// head is the estimate an accuracy-table row scores: a plan's cost or its
// cardinality.
type head int

const (
	cardHead head = iota
	costHead
)

// pick returns h's half of a (cost, card) pair.
func (h head) pick(cost, card float64) float64 {
	if h == cardHead {
		return card
	}
	return cost
}

// truth is a labeled query's true value of h.
func (h head) truth(s *workload.Labeled) float64 { return h.pick(s.Cost, s.Card) }

// floor is h's q-error floor.
func (h head) floor() float64 { return h.pick(nn.CostFloor, nn.CardFloor) }

// valid reads h's validation q-error from a tree model's epoch.
func (h head) valid(st core.EpochStats) float64 { return h.pick(st.ValidCost, st.ValidCard) }

// method is one row of an accuracy table (Tables 7, 8, 10 and 11): a named
// estimate of one head over a labeled query. A sample whose estimate fails
// with errNoEstimate is left out of the row; any other error aborts the run.
type method struct {
	name string
	head head
	est  func(*workload.Labeled) (float64, error)
}

// errNoEstimate marks a query a method cannot estimate: one MSCN's set
// featurization rejects.
var errNoEstimate = errors.New("experiments: no estimate")

// score evaluates every row on samples and returns, in table order, the
// scored cardinality rows (Table 7 or 10) and cost rows (Table 8 or 11).
func score(rows []method, samples []*workload.Labeled) (card, cost []MethodErrors, err error) {
	var byHead [2][]MethodErrors
	for _, r := range rows {
		me := MethodErrors{Name: r.name}
		for _, s := range samples {
			est, err := r.est(s)
			if errors.Is(err, errNoEstimate) {
				continue
			} else if err != nil {
				return nil, nil, fmt.Errorf("experiments: %s: %w", r.name, err)
			}
			truth := r.head.truth(s)
			me.Errors = append(me.Errors, nn.QError(est, truth, r.head.floor()))
			me.points = append(me.points, CostPoint{Real: truth, Est: est})
		}
		me.Summary = metrics.Summarize(me.Errors)
		byHead[r.head] = append(byHead[r.head], me)
	}
	return byHead[cardHead], byHead[costHead], nil
}

// named returns the scored row called name; figures take their rows from the
// scored tables through it.
func named(rows []MethodErrors, name string) MethodErrors {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	panic("experiments: no scored row " + name)
}

// pgRow reads head h of est's estimate for a copy of each query's plan, so
// the labeled plan stays as the labeler left it.
func pgRow(name string, h head, est *pg.Estimator) method {
	return method{name, h, func(s *workload.Labeled) (float64, error) {
		if h == cardHead {
			return est.EstimateCard(s.Plan.Clone()), nil
		}
		return est.EstimateCost(s.Plan.Clone()), nil
	}}
}

// treeRow reads head h of a tree model's estimate of each query's plan.
func treeRow(name string, h head, model *core.Model) method {
	return method{name, h, func(s *workload.Labeled) (float64, error) {
		ep, err := model.Enc.Encode(s.Plan)
		if err != nil {
			return 0, err
		}
		return h.pick(model.Estimate(ep)), nil
	}}
}

// treeSpec describes one tree model: its predicate model, representation,
// training target and plan encoder.
type treeSpec struct {
	pred   core.PredModel
	rep    core.RepModel
	target core.Target
	enc    *feature.Encoder
}

// fitTree trains the tree model sp describes at the environment's sizes on
// train, validating on valid after every epoch, and returns it with its
// per-epoch history. Every tree model of the evaluation is fitted here.
func (e *Env) fitTree(sp treeSpec, train, valid []*workload.Labeled) (*core.Model, []core.EpochStats, error) {
	tr, err := encodeAll(sp.enc, train)
	if err != nil {
		return nil, nil, err
	}
	va, err := encodeAll(sp.enc, valid)
	if err != nil {
		return nil, nil, err
	}
	c := core.DefaultConfig()
	c.OpEmbed, c.MetaEmbed, c.BitmapEmbed, c.PredEmbed = e.Cfg.Embed, e.Cfg.Embed, e.Cfg.Embed, e.Cfg.Embed
	c.Hidden, c.EstHidden = e.Cfg.Hidden, e.Cfg.EstHidden
	c.Pred, c.Rep, c.Target = sp.pred, sp.rep, sp.target
	c.Seed = e.Cfg.Seed
	c.LearnRate = 0.003
	model := core.New(c, sp.enc)
	pt := core.NewParallelTrainer(model, trainShards)
	defer pt.Close()
	return model, pt.Fit(tr, va, e.Cfg.Epochs, e.Cfg.BatchSize, 0, nil), nil
}

// fitMSCN trains an MSCN model of head h, with or without the sample bitmap,
// on train, validating on valid after every epoch, and returns its row and
// its validation curve.
func (e *Env) fitMSCN(name string, h head, sampleBitmap bool, train, valid []*workload.Labeled) (method, Curve, error) {
	model := mscn.New(mscn.Config{Hidden: e.Cfg.MSCNWidth, SampleBitmap: sampleBitmap, Seed: e.Cfg.Seed}, e.Cat)
	featurize := func(set []*workload.Labeled) ([]*mscn.Sample, error) {
		out := make([]*mscn.Sample, 0, len(set))
		for _, s := range set {
			f, err := model.Featurize(s.Query)
			if err != nil {
				return nil, err
			}
			out = append(out, &mscn.Sample{F: f, Target: h.truth(s)})
		}
		return out, nil
	}
	tr, err := featurize(train)
	if err != nil {
		return method{}, Curve{}, err
	}
	va, err := featurize(valid)
	if err != nil {
		return method{}, Curve{}, err
	}
	hist := mscn.NewTrainer(model, h.floor()).Fit(tr, va, e.Cfg.Epochs, e.Cfg.BatchSize)
	row := method{name, h, func(s *workload.Labeled) (float64, error) {
		est, err := model.Estimate(s.Query)
		if err != nil {
			return 0, errNoEstimate
		}
		return est, nil
	}}
	return row, curveOf(name, hist, func(st mscn.EpochStats) float64 { return st.ValidQ }), nil
}

// curveOf reads one validation series, at, from a training history.
func curveOf[S any](name string, hist []S, at func(S) float64) Curve {
	c := Curve{Name: name, Values: make([]float64, len(hist))}
	for i, st := range hist {
		c.Values[i] = at(st)
	}
	return c
}

// curvesNamed returns the curves called names, in that order.
func curvesNamed(curves []Curve, names ...string) []Curve {
	out := make([]Curve, 0, len(names))
	for _, name := range names {
		for _, c := range curves {
			if c.Name == name {
				out = append(out, c)
			}
		}
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

func plansOf(samples []*workload.Labeled) []*plan.Node {
	out := make([]*plan.Node, len(samples))
	for i, s := range samples {
		out[i] = s.Plan
	}
	return out
}

func queriesOf(samples []*workload.Labeled) []*query.Query {
	out := make([]*query.Query, len(samples))
	for i, s := range samples {
		out[i] = s.Query
	}
	return out
}
