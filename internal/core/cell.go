package core

import (
	"math/rand"

	"costest/internal/nn"
	"costest/internal/tensor"
)

// lstmCell is the representation unit of Section 4.2.2:
//
//	G_{t-1} = (G^l + G^r)/2        R_{t-1} = (R^l + R^r)/2
//	f  = σ(W_f·[R_{t-1}, x] + b_f)
//	k1 = σ(W_{k1}·[R_{t-1}, x] + b_{k1})
//	r  = tanh(W_r·[R_{t-1}, x] + b_r)
//	k2 = σ(W_{k2}·[R_{t-1}, x] + b_{k2})
//	G_t = f ⊙ G_{t-1} + k1 ⊙ r     R_t = k2 ⊙ tanh(G_t)
//
// The G channel carries long-range information up the plan tree without
// repeated multiplication, addressing gradient vanishing (the paper's
// information-vanishing argument).
type lstmCell struct {
	wf, wk1, wr, wk2 *nn.Linear
}

func newLSTMCell(ps *nn.ParamSet, name string, dh, dx int, rng *rand.Rand) *lstmCell {
	in := dh + dx
	return &lstmCell{
		wf:  nn.NewLinear(ps, name+".f", in, dh, rng),
		wk1: nn.NewLinear(ps, name+".k1", in, dh, rng),
		wr:  nn.NewLinear(ps, name+".r", in, dh, rng),
		wk2: nn.NewLinear(ps, name+".k2", in, dh, rng),
	}
}

// levelBackwardGEMM folds one batch level's per-node gate gradients into the
// cell's parameter gradients and the level's input gradient as matrix-matrix
// products: for each gate, W.grad += dGateᵀ·Z (every node's outer product in
// one sweep), B.grad += column sums of dGate, and dZ += dGate·W. The dGate
// matrices and zt are node-major ([n×dh] / [n×in], rows aligned with the
// level's items); dz ([n×in]) must be zeroed by the caller — one
// weight-stream per level instead of four Linear.Backward calls per node.
func (c *lstmCell) levelBackwardGEMM(df, dk1, dr, dk2, zt, dz *tensor.Mat) {
	gates := [4]struct {
		d *tensor.Mat
		l *nn.Linear
	}{{df, c.wf}, {dk1, c.wk1}, {dr, c.wr}, {dk2, c.wk2}}
	for _, g := range gates {
		tensor.MatMulTransAInto(g.l.W.GradMat(), g.d, zt)
		tensor.AddColumnSums(g.l.B.GradVec(), g.d)
		tensor.AddMatMulInto(dz, g.d, g.l.W.Mat())
	}
}
