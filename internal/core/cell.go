package core

import (
	"math"
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
// information-vanishing argument). Plan levels and predicate-tree levels run
// the same cell through cellMats and cellGrads; only the slab addressing of
// their callers differs.
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

// cellMats is one level's tree-LSTM state over n rows: the node-major inputs
// zt ([n×(dim+in)]: child-average R, then x) and child-average G gPrev
// ([n×dim]), and the gate-major activations f/k1/r/k2 ([dim×n]). A level
// keeps its own cellMats so training backward can replay them.
type cellMats struct {
	zt, gPrev, f, k1, r, k2 tensor.Mat
}

// size shapes the level for n rows of a cell with hidden width dim and
// input width in.
func (c *cellMats) size(n, dim, in int) {
	matInto(&c.zt, n, dim+in)
	matInto(&c.gPrev, n, dim)
	matInto(&c.f, dim, n)
	matInto(&c.k1, dim, n)
	matInto(&c.r, dim, n)
	matInto(&c.k2, dim, n)
}

// fill writes row j's inputs: gPrev = (G^l + G^r)/2 and zt = [(R^l + R^r)/2,
// x]. An absent child passes nil rows.
func (c *cellMats) fill(j int, gl, rl, gr, rr, x []float64) {
	zRow, gRow := c.zt.Row(j), c.gPrev.Row(j)
	for i := range gRow {
		var g, r float64
		if gl != nil {
			g += gl[i]
			r += rl[i]
		}
		if gr != nil {
			g += gr[i]
			r += rr[i]
		}
		gRow[i] = g / 2
		zRow[i] = r / 2
	}
	copy(zRow[len(gRow):], x)
}

// gates evaluates the four gates over the level: pre = W·ztᵀ, then bias and
// nonlinearity in place.
func (c *cellMats) gates(cell *lstmCell) {
	gateRun(&c.f, cell.wf, &c.zt, sigmoidScalar)
	gateRun(&c.k1, cell.wk1, &c.zt, sigmoidScalar)
	gateRun(&c.r, cell.wr, &c.zt, math.Tanh)
	gateRun(&c.k2, cell.wk2, &c.zt, sigmoidScalar)
}

// gateRun computes one gate's pre-activations for a level (dst = W·ztᵀ) and
// applies bias and nonlinearity in place.
func gateRun(dst *tensor.Mat, l *nn.Linear, zt *tensor.Mat, act func(float64) float64) {
	tensor.MatMulTransBInto(dst, l.W.Mat(), zt)
	b := l.B.Vec()
	n := zt.Rows
	for i := 0; i < dst.Rows; i++ {
		row := dst.Data[i*n : (i+1)*n]
		bi := b[i]
		for j := range row {
			row[j] = act(row[j] + bi)
		}
	}
}

// finish completes row j: G = f⊙gPrev + k1⊙r into g and R = k2⊙tanh(G) into
// rOut. A training pass passes t to retain tanh(G) for the backward; an
// inference pass passes nil.
func (c *cellMats) finish(j int, g, rOut, t []float64) {
	n := c.zt.Rows
	gRow := c.gPrev.Row(j)
	for i := range g {
		k := i*n + j
		gt := c.f.Data[k]*gRow[i] + c.k1.Data[k]*c.r.Data[k]
		g[i] = gt
		th := math.Tanh(gt)
		if t != nil {
			t[i] = th
		}
		rOut[i] = c.k2.Data[k] * th
	}
}

// cellGrads is the backward scratch of one level: the node-major gate
// gradients df/dk1/dr/dk2 and child-average G gradient dgp ([n×dim]), and the
// input gradient dz ([n×(dim+in)]). Plan and predicate levels share one,
// because their backward passes never overlap; a RepNN level uses df as its
// ReLU-masked upstream gradient.
type cellGrads struct {
	df, dk1, dr, dk2, dgp, dz tensor.Mat
}

// size shapes the scratch for n rows of a cell with hidden width dim and
// input width in.
func (g *cellGrads) size(n, dim, in int) {
	matInto(&g.df, n, dim)
	matInto(&g.dk1, n, dim)
	matInto(&g.dr, n, dim)
	matInto(&g.dk2, n, dim)
	matInto(&g.dgp, n, dim)
	matInto(&g.dz, n, dim+in)
}

// row computes row j's four gate gradients and its gPrev gradient from the
// upstream (dG, dR) and the forward's retained activations and tanh(G) cache
// t — the cell algebra (R = k2 ⊙ tanh(G); G = f⊙gPrev + k1⊙r)
// differentiated.
func (g *cellGrads) row(c *cellMats, j int, dG, dR, t []float64) {
	n := c.zt.Rows
	gpRow := c.gPrev.Row(j)
	dfR, dk1R, drR, dk2R, dgpR := g.df.Row(j), g.dk1.Row(j), g.dr.Row(j), g.dk2.Row(j), g.dgp.Row(j)
	for i := range dfR {
		k := i*n + j
		fv := c.f.Data[k]
		k1v := c.k1.Data[k]
		rv := c.r.Data[k]
		k2v := c.k2.Data[k]
		tv := t[i]
		dGtot := dG[i] + dR[i]*k2v*(1-tv*tv)
		dfR[i] = dGtot * gpRow[i] * fv * (1 - fv)
		dk1R[i] = dGtot * rv * k1v * (1 - k1v)
		drR[i] = dGtot * k1v * (1 - rv*rv)
		dk2R[i] = dR[i] * tv * k2v * (1 - k2v)
		dgpR[i] = dGtot * fv
	}
}

// gemm folds the level's gate gradients into the cell's parameter gradients
// and the input gradient dz as matrix-matrix products: for each gate, W.grad
// += dGateᵀ·Z (every row's outer product in one sweep), B.grad += column sums
// of dGate, and dz = Σ dGate·W — one weight stream per level.
func (g *cellGrads) gemm(cell *lstmCell, c *cellMats) {
	g.dz.Zero()
	gates := [4]struct {
		d *tensor.Mat
		l *nn.Linear
	}{{&g.df, cell.wf}, {&g.dk1, cell.wk1}, {&g.dr, cell.wr}, {&g.dk2, cell.wk2}}
	for _, gt := range gates {
		tensor.MatMulTransAInto(gt.l.W.GradMat(), gt.d, &c.zt)
		tensor.AddColumnSums(gt.l.B.GradVec(), gt.d)
		tensor.AddMatMulInto(&g.dz, gt.d, gt.l.W.Mat())
	}
}

// toChild adds row j's gradient with respect to the child averages to one
// child's dR and dG rows: R_{t-1} and G_{t-1} are means of two, so each child
// takes half.
func (g *cellGrads) toChild(j int, dR, dG []float64) {
	dz, dgp := g.dz.Row(j), g.dgp.Row(j)
	for i := range dR {
		dR[i] += dz[i] / 2
		dG[i] += dgp[i] / 2
	}
}
