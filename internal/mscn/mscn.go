// Package mscn implements the multi-set convolutional network baseline
// (Kipf et al., CIDR 2019) the paper compares against: per-set MLPs over
// table, join and predicate feature sets, average pooling per set, and a
// final MLP with sigmoid output predicting one normalized target
// (cardinality or cost). Variants with and without the per-table sample
// bitmap reproduce the paper's MSCNCard / MSCNNSCard ladder.
package mscn

import (
	"fmt"
	"math/rand"

	"costest/internal/nn"
	"costest/internal/query"
	"costest/internal/sqlpred"
	"costest/internal/stats"
)

// Config holds MSCN hyperparameters.
type Config struct {
	Hidden       int
	SampleBitmap bool
	LearnRate    float64
	GradClip     float64
	Seed         int64
}

// DefaultConfig mirrors the published MSCN setup at reduced width.
func DefaultConfig() Config {
	return Config{Hidden: 64, SampleBitmap: true, LearnRate: 0.001, GradClip: 5, Seed: 1}
}

// Features is one query's set-structured featurization.
type Features struct {
	Tables [][]float64
	Joins  [][]float64
	Preds  [][]float64
}

// Sample pairs features with a training target (cardinality or cost).
type Sample struct {
	F      *Features
	Target float64
}

// Model is the MSCN network.
type Model struct {
	Cfg Config
	Cat *stats.Catalog
	PS  *nn.ParamSet

	tableNet *nn.MLP
	joinNet  *nn.MLP
	predNet  *nn.MLP
	outNet   *nn.MLP

	Norm nn.Normalizer

	tableDim, joinDim, predDim int
}

// New builds an MSCN model over the catalog's schema.
func New(cfg Config, cat *stats.Catalog) *Model {
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()
	s := cat.DB.Schema
	m := &Model{Cfg: cfg, Cat: cat, PS: ps}
	m.tableDim = s.NumTables()
	if cfg.SampleBitmap {
		m.tableDim += cat.SampleSize
	}
	m.joinDim = len(s.Joins)
	m.predDim = s.NumColumns() + int(sqlpred.NumOps) + 1

	h := cfg.Hidden
	m.tableNet = nn.NewMLP(ps, "mscn.table", []int{m.tableDim, h, h}, nn.ActReLU, rng)
	m.joinNet = nn.NewMLP(ps, "mscn.join", []int{m.joinDim, h, h}, nn.ActReLU, rng)
	m.predNet = nn.NewMLP(ps, "mscn.pred", []int{m.predDim, h, h}, nn.ActReLU, rng)
	m.outNet = nn.NewMLP(ps, "mscn.out", []int{3 * h, h, 1}, nn.ActSigmoid, rng)
	m.Norm = nn.NewNormalizer([]float64{1, 1e8})
	return m
}

// Featurize converts a query into MSCN's set representation. Only numeric
// atoms enter the predicate set (MSCN does not model string predicates or
// disjunctions — a limitation the paper's tree model removes).
func (m *Model) Featurize(q *query.Query) (*Features, error) {
	s := m.Cat.DB.Schema
	f := &Features{}
	for _, t := range q.Tables {
		vec := make([]float64, m.tableDim)
		id := s.TableID(t)
		if id < 0 {
			return nil, fmt.Errorf("mscn: unknown table %q", t)
		}
		vec[id] = 1
		if m.Cfg.SampleBitmap {
			if err := m.Cat.SampleBitmap(vec[s.NumTables():], t, q.Filter(t)); err != nil {
				return nil, err
			}
		}
		f.Tables = append(f.Tables, vec)
	}
	for _, j := range q.Joins {
		vec := make([]float64, m.joinDim)
		found := false
		for i, e := range s.Joins {
			if (e.FKTable == j.Left.Table && e.FKColumn == j.Left.Column &&
				e.PKTable == j.Right.Table && e.PKColumn == j.Right.Column) ||
				(e.FKTable == j.Right.Table && e.FKColumn == j.Right.Column &&
					e.PKTable == j.Left.Table && e.PKColumn == j.Left.Column) {
				vec[i] = 1
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("mscn: join %v not in schema join vocabulary", j)
		}
		f.Joins = append(f.Joins, vec)
	}
	for _, t := range q.Tables {
		sqlpred.Walk(q.Filter(t), func(a *sqlpred.Atom) {
			if a.IsStr {
				return
			}
			vec := make([]float64, m.predDim)
			if id := s.ColumnID(a.Table, a.Column); id >= 0 {
				vec[id] = 1
			}
			vec[s.NumColumns()+int(a.Op)] = 1
			vec[s.NumColumns()+int(sqlpred.NumOps)] = m.Cat.NormalizeNumeric(a.Table, a.Column, a.NumVal)
			f.Preds = append(f.Preds, vec)
		})
	}
	// Empty sets are represented by a single zero element so pooling stays
	// well-defined (MSCN's zero-padding).
	if len(f.Joins) == 0 {
		f.Joins = append(f.Joins, make([]float64, m.joinDim))
	}
	if len(f.Preds) == 0 {
		f.Preds = append(f.Preds, make([]float64, m.predDim))
	}
	return f, nil
}

// forward computes the sigmoid output for one featurized query.
func (m *Model) forward(f *Features) float64 {
	h := m.Cfg.Hidden
	concat := make([]float64, 3*h)
	poolInto(concat[0:h], m.tableNet, f.Tables)
	poolInto(concat[h:2*h], m.joinNet, f.Joins)
	poolInto(concat[2*h:], m.predNet, f.Preds)
	out := []float64{0}
	m.outNet.Forward(out, concat)
	return out[0]
}

func poolInto(dst []float64, net *nn.MLP, set [][]float64) {
	tmp := make([]float64, len(dst))
	for _, x := range set {
		net.Forward(tmp, x)
		for i := range dst {
			dst[i] += tmp[i]
		}
	}
	inv := 1 / float64(len(set))
	for i := range dst {
		dst[i] *= inv
	}
}

// Estimate returns the denormalized prediction for a query.
func (m *Model) Estimate(q *query.Query) (float64, error) {
	f, err := m.Featurize(q)
	if err != nil {
		return 0, err
	}
	return m.Norm.Denormalize(m.forward(f)), nil
}

// EstimateFeatures returns the denormalized prediction for pre-built
// features (used by the batch path and the efficiency benchmark).
func (m *Model) EstimateFeatures(f *Features) float64 {
	return m.Norm.Denormalize(m.forward(f))
}

// EstimateBatch evaluates many featurized queries on the caller's goroutine
// — the "Batch" variant of Table 12. It reads no shared forward cache, so
// concurrent calls are safe.
func (m *Model) EstimateBatch(fs []*Features) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = m.Norm.Denormalize(m.forwardStateless(f))
	}
	return out
}

// forwardStateless evaluates without touching the shared MLP caches, making
// concurrent inference safe.
func (m *Model) forwardStateless(f *Features) float64 {
	h := m.Cfg.Hidden
	concat := make([]float64, 3*h)
	statelessPool(concat[0:h], m.tableNet, f.Tables)
	statelessPool(concat[h:2*h], m.joinNet, f.Joins)
	statelessPool(concat[2*h:], m.predNet, f.Preds)
	return statelessMLP(m.outNet, concat)
}

func statelessPool(dst []float64, net *nn.MLP, set [][]float64) {
	for _, x := range set {
		cur := x
		for li, l := range net.Layers {
			next := make([]float64, l.Out)
			l.Forward(next, cur)
			if li < len(net.Layers)-1 || net.OutAct == nn.ActReLU {
				nn.ReLU(next, next)
			} else if net.OutAct == nn.ActSigmoid {
				nn.Sigmoid(next, next)
			}
			cur = next
		}
		for i := range dst {
			dst[i] += cur[i]
		}
	}
	inv := 1 / float64(len(set))
	for i := range dst {
		dst[i] *= inv
	}
}

func statelessMLP(net *nn.MLP, x []float64) float64 {
	cur := x
	for li, l := range net.Layers {
		next := make([]float64, l.Out)
		l.Forward(next, cur)
		if li < len(net.Layers)-1 || net.OutAct == nn.ActReLU {
			nn.ReLU(next, next)
		} else if net.OutAct == nn.ActSigmoid {
			nn.Sigmoid(next, next)
		}
		cur = next
	}
	return cur[0]
}
