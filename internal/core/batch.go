package core

import (
	"math"

	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/tensor"
)

// Estimate is a denormalized (cost, cardinality) prediction.
type Estimate struct {
	Cost float64
	Card float64
}

// levelItem addresses one plan node within a batch.
type levelItem struct {
	plan int
	node int32
}

// predItem addresses one predicate-tree node of one plan node.
type predItem struct {
	plan int
	node int32
	pidx int32
	flat int // arena slot
}

// Estimate runs the model over one encoded plan — a batch of one on a
// session drawn from the model's internal pool, so concurrent callers each
// get private buffers and the warm path performs zero heap allocations.
// Optimizer loops that call per-plan estimation at high rates should hold
// their own NewBatchSession and call it directly; pooled estimation (the
// paper's online workflow, Section 3) goes through a Server or a
// BatchSession.
//
// costlint:noalloc
func (m *Model) Estimate(ep *feature.EncodedPlan) (cost, card float64) {
	s := m.batchSession()
	cost, card = s.EstimateWithPool(ep, nil)
	m.batchSessions.Put(s)
	return cost, card
}

// EstimateBatch evaluates many plans with the width-first batching of
// Section 4.3. Instead of recursing plan-by-plan (one matrix-vector product
// per gate per node), all nodes at the same height across the whole batch
// are evaluated together: each level runs the representation cell's four
// gates — and the predicate embedding's leaf layer / tree cells — as single
// matrix-matrix products over every node in the level. The weights then
// stream through the cache once per level instead of once per node, sparse
// one-hot inputs skip their zero feature rows. The batch runs on the
// caller's goroutine. This is the "Batch" variant of Table 12.
//
// This convenience API draws a reusable BatchSession from an internal pool,
// so concurrent callers each get private arenas; the per-call state itself
// is allocated once per session and reused (see BatchSession). Serving loops
// that batch at high rates should hold their own NewBatchSession and call it
// directly.
func (m *Model) EstimateBatch(eps []*feature.EncodedPlan) []Estimate {
	if len(eps) == 0 {
		return nil
	}
	s := m.batchSession()
	out := make([]Estimate, len(eps))
	copy(out, s.EstimateBatch(eps))
	s.releasePlans()
	m.batchSessions.Put(s)
	return out
}

// batchSession fetches a reusable batch session from the model's pool.
func (m *Model) batchSession() *BatchSession {
	if s, ok := m.batchSessions.Get().(*BatchSession); ok {
		return s
	}
	return NewBatchSession(m)
}

// embedSimple computes one node's operation/metadata/bitmap embeddings
// (the predicate segment is filled by the predicate sweep), exploiting input
// sparsity: one-hot and bitmap features touch only the weight columns of
// their set bits.
func (m *Model) embedSimple(node *feature.EncodedNode, dst []float64) {
	off := 0
	sparseLinearReLU(dst[off:off+m.eOp], m.opL, node.Op)
	off += m.eOp
	sparseLinearReLU(dst[off:off+m.eMeta], m.metaL, node.Meta)
	off += m.eMeta
	if m.bmL != nil {
		if node.Bitmap != nil {
			sparseLinearReLU(dst[off:off+m.eBm], m.bmL, node.Bitmap)
		} else {
			biasReLU(dst[off:off+m.eBm], m.bmL)
		}
		off += m.eBm
	}
	pred := dst[off : off+m.ePred]
	for i := range pred {
		pred[i] = 0
	}
}

// sparseLinearReLU computes dst = ReLU(Wx + b) visiting only non-zero x.
func sparseLinearReLU(dst []float64, l *nn.Linear, x []float64) {
	copy(dst, l.B.Vec())
	w := l.W.Mat()
	for j, v := range x {
		if v != 0 {
			tensor.AddColumn(dst, w, j, v)
		}
	}
	for i, v := range dst {
		if v < 0 {
			dst[i] = 0
		}
	}
}

// sparseLinearBackward accumulates a linear layer's parameter gradients for
// upstream gradient dy and sparse input x, visiting only the weight columns
// of non-zero x (the gradient mirror of sparseLinearReLU; no input gradient
// — embedding inputs are data). Element-for-element identical to
// Linear.Backward(nil, dy, x), just skipping the zero columns.
func sparseLinearBackward(l *nn.Linear, dy, x []float64) {
	w := l.W.GradMat()
	for j, v := range x {
		if v != 0 {
			tensor.AddToColumn(w, j, v, dy)
		}
	}
	tensor.AddTo(l.B.GradVec(), dy)
}

// biasReLU is the zero-input case: ReLU(b).
func biasReLU(dst []float64, l *nn.Linear) {
	for i, v := range l.B.Vec() {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func sigmoidScalar(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
