package mscn

import (
	"math/rand"

	"costest/internal/nn"
)

// Trainer optimizes an MSCN model with q-error loss and Adam.
type Trainer struct {
	M     *Model
	Opt   *nn.Adam
	rng   *rand.Rand
	floor float64
	loss  nn.Loss
}

// NewTrainer builds a trainer for the model's target, whose head floor
// (nn.CostFloor or nn.CardFloor) the normalizer, the loss and validation use.
func NewTrainer(m *Model, floor float64) *Trainer {
	return &Trainer{M: m, Opt: nn.NewAdam(learnRate),
		rng: rand.New(rand.NewSource(m.Cfg.Seed + 77)), floor: floor}
}

// FitNormalizer fits the target normalizer on training targets.
func (t *Trainer) FitNormalizer(samples []*Sample) {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = s.Target
	}
	t.M.Norm = nn.NewNormalizer(vals, t.floor)
	t.loss = nn.QErrorLoss{Norm: t.M.Norm, Floor: t.floor, GradClip: 50}
}

// TrainEpoch runs one shuffled epoch, returning the mean q-error loss.
func (t *Trainer) TrainEpoch(samples []*Sample, batchSize int) float64 {
	if t.loss == nil {
		t.FitNormalizer(samples)
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	idx := t.rng.Perm(len(samples))
	var total float64
	for start := 0; start < len(idx); start += batchSize {
		end := start + batchSize
		if end > len(idx) {
			end = len(idx)
		}
		t.M.PS.ZeroGrad()
		for _, i := range idx[start:end] {
			total += t.step(samples[i])
		}
		t.M.PS.ClipGradNorm(gradClip * float64(end-start))
		t.Opt.Step(t.M.PS)
	}
	return total / float64(len(samples))
}

// step accumulates gradients for one sample and returns its loss.
func (t *Trainer) step(s *Sample) float64 {
	m := t.M
	h := m.Cfg.Hidden
	concat := make([]float64, 3*h)
	poolInto(concat[0:h], m.tableNet, s.F.Tables)
	poolInto(concat[h:2*h], m.joinNet, s.F.Joins)
	poolInto(concat[2*h:], m.predNet, s.F.Preds)
	out := []float64{0}
	m.outNet.Forward(out, concat)

	loss, grad := t.loss.Eval(out[0], s.Target)

	dConcat := make([]float64, 3*h)
	m.outNet.Backward(dConcat, []float64{grad})

	// Average pooling distributes the gradient uniformly over set elements;
	// each element is re-forwarded to restore the MLP caches before its
	// backward pass.
	backPool(m.tableNet, s.F.Tables, dConcat[0:h])
	backPool(m.joinNet, s.F.Joins, dConcat[h:2*h])
	backPool(m.predNet, s.F.Preds, dConcat[2*h:])
	return loss
}

func backPool(net *nn.MLP, set [][]float64, d []float64) {
	inv := 1 / float64(len(set))
	dElem := make([]float64, len(d))
	for i := range d {
		dElem[i] = d[i] * inv
	}
	tmp := make([]float64, len(d))
	for _, x := range set {
		net.Forward(tmp, x)
		net.Backward(nil, dElem)
	}
}

// EpochStats mirrors core.EpochStats for validation-curve reporting.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValidQ    float64
}

// Fit trains for the given epochs, tracking mean validation q-error.
func (t *Trainer) Fit(train, valid []*Sample, epochs, batchSize int) []EpochStats {
	t.FitNormalizer(train)
	hist := make([]EpochStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		loss := t.TrainEpoch(train, batchSize)
		hist = append(hist, EpochStats{Epoch: e, TrainLoss: loss, ValidQ: t.M.ValidationError(valid, t.floor)})
	}
	return hist
}

// ValidationError returns the mean q-error over samples, floored at floor.
func (m *Model) ValidationError(samples []*Sample, floor float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		est := m.EstimateFeatures(s.F)
		sum += nn.QError(est, s.Target, floor)
	}
	return sum / float64(len(samples))
}
