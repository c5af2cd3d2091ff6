package nn

import (
	"math"
)

// Each estimation head floors its values so q-errors and logarithms stay
// finite. CardFloor is one row, the usual convention: a zero-row result
// counts as one. CostFloor sits below the executor's cheapest plan (one
// operator's 0.05 ms startup), so no true cost is ever floored and every
// sub-millisecond plan keeps its error.
const (
	CardFloor = 1.0
	CostFloor = 0.01
)

// Normalizer maps positive targets (costs, cardinalities) to [0,1] by min-max
// scaling in log space, matching the paper's "normalized true cost /
// cardinality" targets that the sigmoid output layer predicts.
type Normalizer struct {
	MinLog, MaxLog float64
}

// NewNormalizer fits a normalizer on the training targets, each floored at
// floor. The range is widened by a small margin so slightly out-of-range test
// values do not saturate the sigmoid target exactly at 0 or 1.
func NewNormalizer(values []float64, floor float64) Normalizer {
	if len(values) == 0 {
		return Normalizer{MinLog: 0, MaxLog: 1}
	}
	minLog, maxLog := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		l := math.Log(math.Max(v, floor))
		if l < minLog {
			minLog = l
		}
		if l > maxLog {
			maxLog = l
		}
	}
	if maxLog-minLog < 1e-6 {
		maxLog = minLog + 1
	}
	margin := (maxLog - minLog) * 0.05
	return Normalizer{MinLog: minLog - margin, MaxLog: maxLog + margin}
}

// Span returns the width of the log range.
func (n Normalizer) Span() float64 { return n.MaxLog - n.MinLog }

// Normalize maps a raw positive value to [0,1].
func (n Normalizer) Normalize(v float64) float64 {
	s := (math.Log(v) - n.MinLog) / n.Span()
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Denormalize maps a [0,1] model output back to the raw value scale.
func (n Normalizer) Denormalize(s float64) float64 {
	return math.Exp(s*n.Span() + n.MinLog)
}

// QError returns max(est,truth)/min(est,truth), the paper's error metric and
// training loss, with both operands floored at floor (CostFloor or
// CardFloor) so the ratio is always >= 1.
func QError(est, truth, floor float64) float64 {
	est = math.Max(est, floor)
	truth = math.Max(truth, floor)
	if est > truth {
		return est / truth
	}
	return truth / est
}

// QErrorLoss computes the q-error between the denormalized model output s and
// the raw truth, plus the loss gradient with respect to s. The per-sample
// gradient is clamped at gradClip to keep rare huge-error samples from
// destabilizing Adam (the paper's framework relies on the same kind of
// clipping for stability).
type QErrorLoss struct {
	Norm     Normalizer
	Floor    float64 // the head's floor: CostFloor or CardFloor
	GradClip float64 // 0 means no per-sample clipping
}

// Eval returns (loss, dLoss/ds) for sigmoid output s and raw target truth.
//
// The loss is QError(Denormalize(s), truth, Floor); above the floor the
// gradient is its exact derivative. Below the floor the loss is flat, and
// Eval returns the derivative just above it instead: when the truth is above
// the floor that pushes the estimate up toward it (a zero gradient would
// leave it stuck), and when the truth is at or below the floor both sides
// floor to the same value, the loss is at its minimum 1, and the gradient is
// 0. An estimate exactly at a truth above the floor also gets 0, a
// subgradient at the minimum.
func (l QErrorLoss) Eval(s, truth float64) (loss, grad float64) {
	est := math.Max(l.Norm.Denormalize(s), l.Floor)
	truth = math.Max(truth, l.Floor)
	span := l.Norm.Span()
	switch {
	case est > truth:
		loss = est / truth
		grad = loss * span // d(est/truth)/ds = est*span/truth
	case est < truth:
		loss = truth / est
		grad = -loss * span // d(truth/est)/ds = -truth*span/est
	default:
		return 1, 0
	}
	if l.GradClip > 0 {
		grad = math.Max(-l.GradClip, math.Min(grad, l.GradClip))
	}
	return loss, grad
}

// MSLELoss is the mean-squared error on the normalized log scale — the common
// surrogate for q-error used by reproduction studies. Provided for the loss
// ablation benchmark.
type MSLELoss struct {
	Norm  Normalizer
	Floor float64
}

// Eval returns (loss, dLoss/ds) for sigmoid output s and raw target truth.
func (l MSLELoss) Eval(s, truth float64) (loss, grad float64) {
	t := l.Norm.Normalize(math.Max(truth, l.Floor))
	d := s - t
	return d * d, 2 * d
}

// Loss is the interface shared by q-error and MSLE losses.
type Loss interface {
	Eval(s, truth float64) (loss, grad float64)
}
