package core

import (
	"costest/internal/feature"
	"costest/internal/nn"
)

// FitNormalizers fits the cost/cardinality target normalizers on the
// training set (all supervised nodes when sub-plan supervision is on).
func (pt *ParallelTrainer) FitNormalizers(train []*feature.EncodedPlan) {
	var costs, cards []float64
	for _, ep := range train {
		if pt.M.Cfg.SubplanLoss {
			for i := range ep.Nodes {
				costs = append(costs, ep.Nodes[i].TrueCost)
				cards = append(cards, ep.Nodes[i].TrueRows)
			}
		} else {
			costs = append(costs, ep.Cost)
			cards = append(cards, ep.Card)
		}
	}
	pt.M.CostNorm = nn.NewNormalizer(costs)
	pt.M.CardNorm = nn.NewNormalizer(cards)
	pt.rebuildLosses()
}

func (pt *ParallelTrainer) rebuildLosses() {
	if pt.M.Cfg.UseQError {
		pt.costLoss = nn.QErrorLoss{Norm: pt.M.CostNorm, GradClip: 50}
		pt.cardLoss = nn.QErrorLoss{Norm: pt.M.CardNorm, GradClip: 50}
	} else {
		pt.costLoss = nn.MSLELoss{Norm: pt.M.CostNorm}
		pt.cardLoss = nn.MSLELoss{Norm: pt.M.CardNorm}
	}
}

// permute fills the trainer's reusable shuffle buffer with the same
// permutation rand.Perm would produce (identical draws from pt.rng, so the
// minibatch schedule depends on the model seed alone, never on the shard
// count), without allocating at steady state.
func (pt *ParallelTrainer) permute(n int) []int {
	if cap(pt.permBuf) < n {
		pt.permBuf = make([]int, n)
	}
	p := pt.permBuf[:n]
	for i := range p {
		j := pt.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// ValidationError reports mean q-errors over a validation set, evaluated as
// one batch.
func (m *Model) ValidationError(samples []*feature.EncodedPlan) (costQ, cardQ float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	for i, e := range m.EstimateBatch(samples) {
		costQ += nn.QError(e.Cost, samples[i].Cost)
		cardQ += nn.QError(e.Card, samples[i].Card)
	}
	n := float64(len(samples))
	return costQ / n, cardQ / n
}

// EpochStats reports one training epoch's outcome.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValidCost float64
	ValidCard float64
}
