package experiments

import (
	"time"

	"costest/internal/core"
	"costest/internal/mscn"
	"costest/internal/workload"
)

// timingRepeats: each latency measurement is repeated and the minimum taken,
// shielding Table 12 against GC pauses and scheduler noise from the training
// phases that ran in the same process.
const timingRepeats = 5

// runTiming reproduces Table 12: per-query estimation latency on the JOB
// workload for PostgreSQL-style costing, MSCN, and the tree-LSTM and pooling
// tree models with and without width-first batching.
func (e *Env) runTiming(samples []*workload.Labeled, tlstm, tpool *core.Model) ([]TimingRow, error) {
	n := len(samples)
	if n == 0 {
		return nil, nil
	}

	best := func(f func()) float64 {
		bestMS := 0.0
		for r := 0; r < timingRepeats; r++ {
			t0 := time.Now()
			f()
			ms := msPerQuery(t0, n)
			if r == 0 || ms < bestMS {
				bestMS = ms
			}
		}
		return bestMS
	}

	// PostgreSQL: cost model evaluation over the plan tree.
	plans := plansOf(samples)
	pgMS := best(func() {
		for _, p := range plans {
			e.PG.EstimateCost(p)
		}
	})

	// MSCN: architecture cost is what Table 12 measures, not accuracy, so an
	// untrained model of the right shape suffices; featurization is
	// precomputed for all methods alike.
	mscnModel := mscn.New(mscn.Config{Hidden: e.Cfg.MSCNWidth, SampleBitmap: true, Seed: e.Cfg.Seed}, e.Cat)
	var feats []*mscn.Features
	for _, s := range samples {
		f, err := mscnModel.Featurize(s.Query)
		if err != nil {
			return nil, err
		}
		feats = append(feats, f)
	}
	mscnMS := best(func() {
		for _, f := range feats {
			mscnModel.EstimateFeatures(f)
		}
	})
	mscnBatchMS := best(func() { mscnModel.EstimateBatch(feats) })

	timeTree := func(model *core.Model) (seq, batch float64, err error) {
		eps, err := encodeAll(model.Enc, samples)
		if err != nil {
			return 0, 0, err
		}
		seq = best(func() {
			for _, ep := range eps {
				model.Estimate(ep)
			}
		})
		batch = best(func() { model.EstimateBatch(eps) })
		return seq, batch, nil
	}
	tlstmMS, tlstmBatchMS, err := timeTree(tlstm)
	if err != nil {
		return nil, err
	}
	tpoolMS, tpoolBatchMS, err := timeTree(tpool)
	if err != nil {
		return nil, err
	}

	return []TimingRow{
		{Method: "PostgreSQL", PerMsQ: pgMS},
		{Method: "MSCN", PerMsQ: mscnMS},
		{Method: "MSCNBatch", Batch: true, PerMsQ: mscnBatchMS},
		{Method: "TLSTM", PerMsQ: tlstmMS},
		{Method: "TLSTMBatch", Batch: true, PerMsQ: tlstmBatchMS},
		{Method: "TPool", PerMsQ: tpoolMS},
		{Method: "TPoolBatch", Batch: true, PerMsQ: tpoolBatchMS},
	}, nil
}

func msPerQuery(start time.Time, n int) float64 {
	return float64(time.Since(start).Microseconds()) / 1000 / float64(n)
}
