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
// per-node mat-vecs, with the elementwise work spread across parallelFor
// workers. TestModelGradCheck pins it to central finite differences.

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

	s.bwdH, s.bwdWo = H, o.W.Mat().Data
	s.parRun(total, s.fnHeadBack)
	tensor.MatMulTransAInto(h.W.GradMat(), &s.dH, &s.rView)
	tensor.AddColumnSums(h.B.GradVec(), &s.dH)
	tensor.AddMatMulInto(dR, &s.dH, h.W.Mat())
}

// cellGateGrads computes one node's four gate gradients and its dGprev from
// the upstream (dG, dR) and the retained forward activations — the cell
// algebra (R = k2 ⊙ tanh(G); G = f⊙Gprev + k1⊙r) differentiated and
// vectorized over a level. The node occupies column j of the gate-major mats
// (f..k2, each dim×n) and row slices of everything else; outputs land in the
// node-major dGate rows dfR..dk2R and dgpR. Shared by the representation
// cell and the predicate tree-LSTM level backward.
func cellGateGrads(dim, j, n int, dG, dR, tRow, gpRow []float64,
	f, k1, r, k2 *tensor.Mat, dfR, dk1R, drR, dk2R, dgpR []float64) {
	for i := 0; i < dim; i++ {
		fv := f.Data[i*n+j]
		k1v := k1.Data[i*n+j]
		rv := r.Data[i*n+j]
		k2v := k2.Data[i*n+j]
		tv := tRow[i]
		dGtot := dG[i] + dR[i]*k2v*(1-tv*tv)
		dfR[i] = dGtot * gpRow[i] * fv * (1 - fv)
		dk1R[i] = dGtot * rv * k1v * (1 - k1v)
		drR[i] = dGtot * k1v * (1 - rv*rv)
		dk2R[i] = dR[i] * tv * k2v * (1 - k2v)
		dgpR[i] = dGtot * fv
	}
}

// backwardLevelLSTM backpropagates one plan level through the
// representation cell: elementwise gate gradients per node (parallel), then
// the four gate GEMMs, then scatter of dE and the children's dG/dR halves.
// The parallel stages are the prebound fnBwdCell* kernels, reading the level
// index from s.lvi — like every forward kernel, so warm training passes
// materialize no closures.
func (s *BatchSession) backwardLevelLSTM(d int) {
	n := len(s.levels[d])
	dh, de := s.dh, s.de
	matInto(&s.dF, n, dh)
	matInto(&s.dK1, n, dh)
	matInto(&s.dRM, n, dh)
	matInto(&s.dK2, n, dh)
	matInto(&s.dGp, n, dh)
	matInto(&s.dZ, n, dh+de)
	s.lvi = d
	s.parRun(n, s.fnBwdCellGrads)

	s.dZ.Zero()
	s.m.repCell.levelBackwardGEMM(&s.dF, &s.dK1, &s.dRM, &s.dK2, &s.zt[d], &s.dZ)

	s.parRun(n, s.fnBwdCellScatter)
}

// backwardLevelNN is the RepNN counterpart: R = ReLU(W·[E, Rl, Rr] + b), so
// one masked GEMM per level, framed by the prebound fnBwdNN* kernels.
func (s *BatchSession) backwardLevelNN(d int) {
	n := len(s.levels[d])
	dh, de := s.dh, s.de
	matInto(&s.dF, n, dh) // reused as the ReLU-masked upstream gradient
	matInto(&s.dZ, n, de+2*dh)
	s.lvi = d
	s.parRun(n, s.fnBwdNNGrads)

	tensor.MatMulTransAInto(s.m.repNN.W.GradMat(), &s.dF, &s.zt[d])
	tensor.AddColumnSums(s.m.repNN.B.GradVec(), &s.dF)
	s.dZ.Zero()
	tensor.AddMatMulInto(&s.dZ, &s.dF, s.m.repNN.W.Mat())

	s.parRun(n, s.fnBwdNNScatter)
}

// backwardEmbedAll backpropagates every node's embedding sublayers. The
// one-hot/bitmap inputs are sparse, so this is a sequential sweep of cheap
// column updates into the shared weight gradients; it also seeds each
// predicate tree root's upstream gradient (the pred segment of dE).
func (s *BatchSession) backwardEmbedAll() {
	m := s.m
	de := s.de
	predSegOff := m.eOp + m.eMeta + m.eBm
	for _, it := range s.all {
		id := s.offsets[it.plan] + int(it.node)
		node := &s.eps[it.plan].Nodes[it.node]
		e := s.eOf(id)
		dERow := s.dE[id*de : (id+1)*de]
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
			flat := s.predBase[id]
			copy(s.dPOut[flat*s.epd:(flat+1)*s.epd], dERow[predSegOff:predSegOff+s.epd])
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
	epd := s.epd
	for h := len(s.byLevel) - 1; h >= 0; h-- {
		lv := s.byLevel[h]
		if len(lv) == 0 {
			continue
		}
		n := len(lv)
		switch m.Cfg.Pred {
		case PredPool, PredPoolMean:
			if h == 0 {
				// All leaves: one weight-gradient GEMM through W_p against
				// the leaf input matrix retained from the forward sweep.
				matInto(&s.dLeaf, n, epd)
				for j, it := range lv {
					copy(s.dLeaf.Row(j), s.dPOut[it.flat*epd:(it.flat+1)*epd])
				}
				tensor.MatMulTransAInto(m.predLeaf.W.GradMat(), &s.dLeaf, &s.pxt)
				tensor.AddColumnSums(m.predLeaf.B.GradVec(), &s.dLeaf)
			} else {
				s.plvi = h
				s.parRun(n, s.fnBwdPredPool)
			}
		case PredLSTM:
			s.backwardPredCellLevel(h)
		}
	}
}

// backwardPredCellLevel backpropagates one predicate level through the
// predicate tree-LSTM: the same structure as backwardLevelLSTM, minus input
// gradients (atom features are data, not parameters).
func (s *BatchSession) backwardPredCellLevel(h int) {
	n := len(s.byLevel[h])
	epd := s.epd
	matInto(&s.dPF, n, epd)
	matInto(&s.dPK1, n, epd)
	matInto(&s.dPRM, n, epd)
	matInto(&s.dPK2, n, epd)
	matInto(&s.dPGp, n, epd)
	matInto(&s.dPZ, n, epd+s.atomDim)
	s.plvi = h
	s.parRun(n, s.fnBwdPredGrads)

	s.dPZ.Zero()
	s.m.predCell.levelBackwardGEMM(&s.dPF, &s.dPK1, &s.dPRM, &s.dPK2, &s.pzt[h], &s.dPZ)

	s.parRun(n, s.fnBwdPredScatter)
}

// bindBackwardKernels allocates the training backward pass's parallel
// kernels once, mirroring bindKernels: loop context travels through session
// fields (lvi/plvi, bwdH/bwdWo), so warm training passes — including every
// data-parallel worker's — materialize no closures and allocate nothing.
func (s *BatchSession) bindBackwardKernels() {
	s.fnHeadBack = func(j int) {
		row := s.dH.Row(j)
		hrow := s.bwdH.Row(j)
		p := s.dPre[j]
		for i := range row {
			if hrow[i] > 0 {
				row[i] = p * s.bwdWo[i]
			} else {
				row[i] = 0
			}
		}
	}

	s.fnBwdCellGrads = func(j int) {
		d := s.lvi
		lv := s.levels[d]
		n := len(lv)
		dh := s.dh
		it := lv[j]
		id := s.offsets[it.plan] + int(it.node)
		cellGateGrads(dh, j, n,
			s.dG[id*dh:(id+1)*dh], s.dR[id*dh:(id+1)*dh], s.tOf(id), s.gPrev[d].Row(j),
			&s.f[d], &s.k1[d], &s.r[d], &s.k2[d],
			s.dF.Row(j), s.dK1.Row(j), s.dRM.Row(j), s.dK2.Row(j), s.dGp.Row(j))
	}

	s.fnBwdCellScatter = func(j int) {
		it := s.levels[s.lvi][j]
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		id := base + int(it.node)
		dh, de := s.dh, s.de
		dzRow := s.dZ.Row(j)
		copy(s.dE[id*de:(id+1)*de], dzRow[dh:])
		dgpR := s.dGp.Row(j)
		// Rprev = (Rl+Rr)/2, Gprev = (Gl+Gr)/2: each child takes half.
		if node.Left >= 0 {
			lid := base + node.Left
			dRl := s.dR[lid*dh : (lid+1)*dh]
			dGl := s.dG[lid*dh : (lid+1)*dh]
			for i := 0; i < dh; i++ {
				dRl[i] += dzRow[i] / 2
				dGl[i] += dgpR[i] / 2
			}
		}
		if node.Right >= 0 {
			rid := base + node.Right
			dRr := s.dR[rid*dh : (rid+1)*dh]
			dGr := s.dG[rid*dh : (rid+1)*dh]
			for i := 0; i < dh; i++ {
				dRr[i] += dzRow[i] / 2
				dGr[i] += dgpR[i] / 2
			}
		}
	}

	s.fnBwdNNGrads = func(j int) {
		it := s.levels[s.lvi][j]
		id := s.offsets[it.plan] + int(it.node)
		dh := s.dh
		rRow := s.rOf(id)
		dRrow := s.dR[id*dh : (id+1)*dh]
		dfR := s.dF.Row(j)
		for i := 0; i < dh; i++ {
			if rRow[i] > 0 {
				dfR[i] = dRrow[i]
			} else {
				dfR[i] = 0
			}
		}
	}

	s.fnBwdNNScatter = func(j int) {
		it := s.levels[s.lvi][j]
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		id := base + int(it.node)
		dh, de := s.dh, s.de
		dzRow := s.dZ.Row(j)
		copy(s.dE[id*de:(id+1)*de], dzRow[:de])
		if node.Left >= 0 {
			lid := base + node.Left
			dRl := s.dR[lid*dh : (lid+1)*dh]
			for i := 0; i < dh; i++ {
				dRl[i] += dzRow[de+i]
			}
		}
		if node.Right >= 0 {
			rid := base + node.Right
			dRr := s.dR[rid*dh : (rid+1)*dh]
			for i := 0; i < dh; i++ {
				dRr[i] += dzRow[de+dh+i]
			}
		}
	}

	s.fnBwdPredPool = func(j int) {
		it := s.byLevel[s.plvi][j]
		epd := s.epd
		pn := &s.eps[it.plan].Nodes[it.node].Pred.Nodes[it.pidx]
		fl := s.flatOf(it.plan, it.node, pn.Left)
		fr := s.flatOf(it.plan, it.node, pn.Right)
		d := s.dPOut[it.flat*epd : (it.flat+1)*epd]
		l, r := s.pOutOf(fl), s.pOutOf(fr)
		dl := s.dPOut[fl*epd : (fl+1)*epd]
		dr := s.dPOut[fr*epd : (fr+1)*epd]
		if s.m.Cfg.Pred == PredPoolMean {
			// Mean pooling splits the gradient evenly.
			for i := range d {
				dl[i] = d[i] / 2
				dr[i] = d[i] / 2
			}
			return
		}
		// Min/max pooling routes each component to the winning child (ties
		// go left).
		for i := range d {
			takeLeft := l[i] <= r[i]
			if pn.Bool != 0 { // OR → max pooling
				takeLeft = l[i] >= r[i]
			}
			if takeLeft {
				dl[i] = d[i]
				dr[i] = 0
			} else {
				dl[i] = 0
				dr[i] = d[i]
			}
		}
	}

	s.fnBwdPredGrads = func(j int) {
		h := s.plvi
		lv := s.byLevel[h]
		n := len(lv)
		epd := s.epd
		fl := lv[j].flat
		cellGateGrads(epd, j, n,
			s.dPG[fl*epd:(fl+1)*epd], s.dPOut[fl*epd:(fl+1)*epd], s.ptOf(fl), s.pgPrev[h].Row(j),
			&s.pf[h], &s.pk1[h], &s.pr[h], &s.pk2[h],
			s.dPF.Row(j), s.dPK1.Row(j), s.dPRM.Row(j), s.dPK2.Row(j), s.dPGp.Row(j))
	}

	s.fnBwdPredScatter = func(j int) {
		it := s.byLevel[s.plvi][j]
		epd := s.epd
		pn := &s.eps[it.plan].Nodes[it.node].Pred.Nodes[it.pidx]
		dzRow := s.dPZ.Row(j)
		dgpR := s.dPGp.Row(j)
		if pn.Left >= 0 {
			flc := s.flatOf(it.plan, it.node, pn.Left)
			dRl := s.dPOut[flc*epd : (flc+1)*epd]
			dGl := s.dPG[flc*epd : (flc+1)*epd]
			for i := 0; i < epd; i++ {
				dRl[i] += dzRow[i] / 2
				dGl[i] += dgpR[i] / 2
			}
		}
		if pn.Right >= 0 {
			frc := s.flatOf(it.plan, it.node, pn.Right)
			dRr := s.dPOut[frc*epd : (frc+1)*epd]
			dGr := s.dPG[frc*epd : (frc+1)*epd]
			for i := 0; i < epd; i++ {
				dRr[i] += dzRow[i] / 2
				dGr[i] += dgpR[i] / 2
			}
		}
	}
}
