package core

import (
	"costest/internal/nn"
	"costest/internal/tensor"
)

// This file implements the level-wise batched backward pass: the training
// counterpart of EstimateBatch. Gradients flow top-down through the same
// level structure the forward sweep used, so each level's four LSTM gate
// gradients (and the predicate-tree cell gradients) become single
// matrix-matrix products — dW += dGateᵀ·Z and dZ += dGate·W — instead of
// per-node mat-vecs, framed by plain per-row loops. TestModelGradCheck pins
// it to central finite differences.

// batchLossAndGrads computes the multitask loss
// ω·qerror(cost) + qerror(card) over a minibatch's supervised nodes: it
// fills the session's per-node dCostS/dCardS head-gradient slabs (scaled per
// plan by its supervision count) and returns the summed per-sample loss.
func (pt *ParallelTrainer) batchLossAndGrads(bs *BatchSession) float64 {
	cfg := pt.M.Cfg
	bs.dCostS = growSlice(bs.dCostS, bs.total)
	bs.dCardS = growSlice(bs.dCardS, bs.total)
	tensor.ZeroVec(bs.dCostS)
	tensor.ZeroVec(bs.dCardS)
	var sum float64
	for i, ep := range bs.eps {
		base := bs.offsets[i]
		var loss float64
		supervised := 0
		supCost := func(idx int, truth, weight float64) {
			l, g := pt.costLoss.Eval(bs.sCost[base+idx], truth)
			loss += weight * l
			bs.dCostS[base+idx] += weight * g
			supervised++
		}
		supCard := func(idx int, truth, weight float64) {
			l, g := pt.cardLoss.Eval(bs.sCard[base+idx], truth)
			loss += weight * l
			bs.dCardS[base+idx] += weight * g
			supervised++
		}
		if cfg.SubplanLoss {
			for j := range ep.Nodes {
				if cfg.Target != TargetCard {
					supCost(j, ep.Nodes[j].TrueCost, cfg.LossWeight)
				}
				if cfg.Target != TargetCost {
					supCard(j, ep.Nodes[j].TrueRows, 1)
				}
			}
		} else {
			if cfg.Target != TargetCard {
				supCost(ep.Root, ep.Cost, cfg.LossWeight)
			}
			if cfg.Target != TargetCost {
				supCard(ep.CardNode, ep.Card, 1)
			}
		}
		if supervised == 0 {
			continue
		}
		// Normalize the gradient scale by the supervision count so sub-plan
		// supervision does not inflate step sizes.
		scale := 1 / float64(supervised)
		for j := base; j < base+len(ep.Nodes); j++ {
			bs.dCostS[j] *= scale
			bs.dCardS[j] *= scale
		}
		sum += loss / float64(supervised)
	}
	return sum
}

// backward runs the level-wise backward pass over the state retained by the
// last training forward (run with train=true), accumulating parameter
// gradients into the model's ParamSet.
func (s *BatchSession) backward() {
	total := s.total
	s.dG = growSlice(s.dG, total*s.dh)
	s.dR = growSlice(s.dR, total*s.dh)
	s.dE = growSlice(s.dE, total*s.de)
	tensor.ZeroVec(s.dG)
	tensor.ZeroVec(s.dR)
	if len(s.items) > 0 {
		s.dPOut = growSlice(s.dPOut, len(s.items)*s.epd)
		tensor.ZeroVec(s.dPOut)
		if s.m.Cfg.Pred == PredLSTM {
			s.dPG = growSlice(s.dPG, len(s.items)*s.epd)
			tensor.ZeroVec(s.dPG)
		}
	}

	// Estimation heads first: every supervised node's head gradient lands in
	// dR before its level is swept.
	s.backwardHeadsBatch()

	// Representation levels, top-down: when level d is processed, all parents
	// (strictly higher levels) have already deposited their child gradients.
	for d := len(s.levels) - 1; d >= 0; d-- {
		if len(s.levels[d]) == 0 {
			continue
		}
		switch s.m.Cfg.Rep {
		case RepLSTM:
			s.backwardLevelLSTM(d)
		case RepNN:
			s.backwardLevelNN(d)
		}
	}

	// Embedding layer (sparse, sequential — parameter gradients are shared),
	// which also seeds each predicate tree root's upstream gradient.
	s.backwardEmbedAll()

	// Predicate trees, level by level top-down.
	s.backwardPredsBatch()
}

// backward slab accessors (training passes keep one gradient row per node)

func (s *BatchSession) dGOf(id int) []float64 { return s.dG[id*s.dh : (id+1)*s.dh] }
func (s *BatchSession) dROf(id int) []float64 { return s.dR[id*s.dh : (id+1)*s.dh] }
func (s *BatchSession) dEOf(id int) []float64 { return s.dE[id*s.de : (id+1)*s.de] }

func (s *BatchSession) dPOutOf(flat int) []float64 { return s.dPOut[flat*s.epd : (flat+1)*s.epd] }
func (s *BatchSession) dPGOf(flat int) []float64   { return s.dPG[flat*s.epd : (flat+1)*s.epd] }

// backwardHeadsBatch backpropagates both estimation heads for every node in
// the batch as GEMMs over the retained hidden activations, accumulating into
// the dR slab.
func (s *BatchSession) backwardHeadsBatch() {
	m := s.m
	total := s.total
	s.dPre = growSlice(s.dPre, total)
	matInto(&s.dH, total, s.eh)
	dRv := tensor.Mat{Rows: total, Cols: s.dh, Data: s.dR[:total*s.dh]}

	for j := 0; j < total; j++ {
		sv := s.sCost[j]
		s.dPre[j] = s.dCostS[j] * sv * (1 - sv)
	}
	s.headBackOne(m.costH, m.costO, &s.hCost, &dRv)

	for j := 0; j < total; j++ {
		sv := s.sCard[j]
		s.dPre[j] = s.dCardS[j] * sv * (1 - sv)
	}
	s.headBackOne(m.cardH, m.cardO, &s.hCard, &dRv)
}

// headBackOne backpropagates one head (hidden layer h, 1-wide output layer
// o) over all nodes: s.dPre holds the per-node output-preactivation
// gradients, H the retained post-ReLU hidden activations.
func (s *BatchSession) headBackOne(h, o *nn.Linear, H, dR *tensor.Mat) {
	total := H.Rows
	dPreM := tensor.Mat{Rows: total, Cols: 1, Data: s.dPre[:total]}
	tensor.MatMulTransAInto(o.W.GradMat(), &dPreM, H)
	o.B.GradVec()[0] += tensor.Sum(s.dPre[:total])

	wo := o.W.Mat().Data
	for j := 0; j < total; j++ {
		row, hrow, p := s.dH.Row(j), H.Row(j), s.dPre[j]
		for i := range row {
			if hrow[i] > 0 {
				row[i] = p * wo[i]
			} else {
				row[i] = 0
			}
		}
	}
	tensor.MatMulTransAInto(h.W.GradMat(), &s.dH, &s.rView)
	tensor.AddColumnSums(h.B.GradVec(), &s.dH)
	tensor.AddMatMulInto(dR, &s.dH, h.W.Mat())
}

// backwardLevelLSTM backpropagates plan level d through the representation
// cell: gate gradients per row, the four gate GEMMs, then each row's dE and
// its children's halves of dG/dR.
func (s *BatchSession) backwardLevelLSTM(d int) {
	lv, c, g := s.levels[d], &s.cells[d], &s.grads
	g.size(len(lv), s.dh, s.de)
	for j, it := range lv {
		id := s.offsets[it.plan] + int(it.node)
		g.row(c, j, s.dGOf(id), s.dROf(id), s.tOf(id))
	}
	g.gemm(s.m.repCell, c)
	for j, it := range lv {
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		copy(s.dEOf(base+int(it.node)), g.dz.Row(j)[s.dh:])
		if node.Left >= 0 {
			g.toChild(j, s.dROf(base+node.Left), s.dGOf(base+node.Left))
		}
		if node.Right >= 0 {
			g.toChild(j, s.dROf(base+node.Right), s.dGOf(base+node.Right))
		}
	}
}

// backwardLevelNN is the RepNN counterpart: R = ReLU(W·[E, Rl, Rr] + b), so
// one masked GEMM per level.
func (s *BatchSession) backwardLevelNN(d int) {
	lv, g := s.levels[d], &s.grads
	dh, de := s.dh, s.de
	matInto(&g.df, len(lv), dh) // the ReLU-masked upstream gradient
	matInto(&g.dz, len(lv), de+2*dh)
	for j, it := range lv {
		id := s.offsets[it.plan] + int(it.node)
		rRow, dRrow, dfR := s.rOf(id), s.dROf(id), g.df.Row(j)
		for i := range dfR {
			if rRow[i] > 0 {
				dfR[i] = dRrow[i]
			} else {
				dfR[i] = 0
			}
		}
	}

	zt := &s.cells[d].zt
	tensor.MatMulTransAInto(s.m.repNN.W.GradMat(), &g.df, zt)
	tensor.AddColumnSums(s.m.repNN.B.GradVec(), &g.df)
	g.dz.Zero()
	tensor.AddMatMulInto(&g.dz, &g.df, s.m.repNN.W.Mat())

	for j, it := range lv {
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		dzRow := g.dz.Row(j)
		copy(s.dEOf(base+int(it.node)), dzRow[:de])
		if node.Left >= 0 {
			tensor.AddTo(s.dROf(base+node.Left), dzRow[de:de+dh])
		}
		if node.Right >= 0 {
			tensor.AddTo(s.dROf(base+node.Right), dzRow[de+dh:])
		}
	}
}

// backwardEmbedAll backpropagates every node's embedding sublayers. The
// one-hot/bitmap inputs are sparse, so this is a sequential sweep of cheap
// column updates into the shared weight gradients; it also seeds each
// predicate tree root's upstream gradient (the pred segment of dE).
func (s *BatchSession) backwardEmbedAll() {
	m := s.m
	predSegOff := m.eOp + m.eMeta + m.eBm
	for _, it := range s.all {
		id := s.offsets[it.plan] + int(it.node)
		node := &s.eps[it.plan].Nodes[it.node]
		e := s.eOf(id)
		dERow := s.dEOf(id)
		off := 0
		dOp := dERow[off : off+m.eOp]
		nn.ReLUBackwardInPlace(dOp, e[off:off+m.eOp])
		sparseLinearBackward(m.opL, dOp, node.Op)
		off += m.eOp
		dMeta := dERow[off : off+m.eMeta]
		nn.ReLUBackwardInPlace(dMeta, e[off:off+m.eMeta])
		sparseLinearBackward(m.metaL, dMeta, node.Meta)
		off += m.eMeta
		if m.bmL != nil {
			dBm := dERow[off : off+m.eBm]
			nn.ReLUBackwardInPlace(dBm, e[off:off+m.eBm])
			if node.Bitmap != nil {
				sparseLinearBackward(m.bmL, dBm, node.Bitmap)
			} else {
				tensor.AddTo(m.bmL.B.GradVec(), dBm)
			}
			off += m.eBm
		}
		if !node.Pred.Empty() {
			copy(s.dPOutOf(s.predBase[id]), dERow[predSegOff:predSegOff+s.epd])
		}
	}
}

// backwardPredsBatch backpropagates every predicate tree, level by level
// top-down. Pooling connectives route gradients elementwise; the leaf layer
// (pool variants) and the predicate cell (LSTM variant) fold into GEMMs.
func (s *BatchSession) backwardPredsBatch() {
	if len(s.items) == 0 {
		return
	}
	m := s.m
	for h := len(s.byLevel) - 1; h >= 0; h-- {
		lv := s.byLevel[h]
		if len(lv) == 0 {
			continue
		}
		switch {
		case m.Cfg.Pred == PredLSTM:
			s.backwardPredLevelLSTM(h)
		case h == 0:
			// All leaves: one weight-gradient GEMM through W_p against the
			// leaf input matrix retained from the forward sweep.
			matInto(&s.dLeaf, len(lv), s.epd)
			for j, it := range lv {
				copy(s.dLeaf.Row(j), s.dPOutOf(it.flat))
			}
			tensor.MatMulTransAInto(m.predLeaf.W.GradMat(), &s.dLeaf, &s.pxt)
			tensor.AddColumnSums(m.predLeaf.B.GradVec(), &s.dLeaf)
		default:
			s.backwardPredPoolLevel(lv)
		}
	}
}

// backwardPredPoolLevel routes one level of pooling connectives' gradients
// to their children: mean pooling splits each component evenly, min/max
// pooling sends it to the winning child (ties go left).
func (s *BatchSession) backwardPredPoolLevel(lv []predItem) {
	mean := s.m.Cfg.Pred == PredPoolMean
	for _, it := range lv {
		pn := s.predNode(it)
		fl := s.flatOf(it.plan, it.node, pn.Left)
		fr := s.flatOf(it.plan, it.node, pn.Right)
		d := s.dPOutOf(it.flat)
		l, r := s.pOutOf(fl), s.pOutOf(fr)
		dl, dr := s.dPOutOf(fl), s.dPOutOf(fr)
		for i := range d {
			switch {
			case mean:
				dl[i] = d[i] / 2
				dr[i] = d[i] / 2
			case pn.Bool == 0 && l[i] <= r[i], pn.Bool != 0 && l[i] >= r[i]: // AND → min, OR → max
				dl[i] = d[i]
				dr[i] = 0
			default:
				dl[i] = 0
				dr[i] = d[i]
			}
		}
	}
}

// backwardPredLevelLSTM backpropagates predicate level h through the
// predicate cell — backwardLevelLSTM's algebra and scratch, addressed through
// the predicate slabs, minus input gradients (atom features are data).
func (s *BatchSession) backwardPredLevelLSTM(h int) {
	lv, c, g := s.byLevel[h], &s.pcells[h], &s.grads
	g.size(len(lv), s.epd, s.atomDim)
	for j, it := range lv {
		g.row(c, j, s.dPGOf(it.flat), s.dPOutOf(it.flat), s.ptOf(it.flat))
	}
	g.gemm(s.m.predCell, c)
	for j, it := range lv {
		pn := s.predNode(it)
		if pn.Left >= 0 {
			fl := s.flatOf(it.plan, it.node, pn.Left)
			g.toChild(j, s.dPOutOf(fl), s.dPGOf(fl))
		}
		if pn.Right >= 0 {
			fr := s.flatOf(it.plan, it.node, pn.Right)
			g.toChild(j, s.dPOutOf(fr), s.dPGOf(fr))
		}
	}
}
