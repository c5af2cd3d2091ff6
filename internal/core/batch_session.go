package core

import (
	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/plan"
	"costest/internal/tensor"
)

// BatchSession is the model runtime: it owns every per-call buffer the
// width-first batch evaluator needs — node/level arenas, the eBuf/gBuf/rBuf
// representation slabs, the predicate level buffers and the per-level gate
// matrices — sized by high-water mark and reused across calls. After warming
// up on the largest batch shape it has seen, steady-state EstimateBatch
// performs zero heap allocations. A single plan is a batch of one (Estimate,
// EstimateWithPool): there is no second, per-node evaluator. A batch runs on
// the caller's goroutine: each level is a handful of GEMMs framed by plain
// per-row loops, and concurrency lives across requests and trainer shards,
// never inside a batch.
//
// A session is bound to one model and is NOT safe for concurrent use; give
// each goroutine its own (Model.Estimate and Model.EstimateBatch maintain an
// internal sync.Pool of sessions for the convenience API).
//
// Training passes (ParallelTrainer's shard workers) run the same forward with
// retention switched on: per-level gate activations, tanh caches and
// all-node head activations stay resident for the level-wise backward in
// batch_backward.go.
type BatchSession struct {
	m *Model
	// Cached model dimensions.
	de, dh, eh, epd, atomDim int

	// poolGen is the snapshot generation this session stamps on memory-pool
	// traffic: GetGen only accepts entries recorded under the same
	// generation and PutGen records it. Zero for standalone sessions
	// (matching a fresh pool's generation); a Server sets it to the bound
	// snapshot's version so pooled representations never cross a hot swap.
	poolGen uint64

	train bool

	// Per-call plan addressing. one backs the single-plan entry points.
	one     [1]*feature.EncodedPlan
	eps     []*feature.EncodedPlan
	offsets []int
	total   int
	levels  [][]levelItem
	all     []levelItem

	// In-batch sub-plan sharing (inference passes). rep maps each placed
	// global node id to its representative — itself, or the earlier node of
	// this batch with the same plan.ID, whose G/R rows it reads instead of
	// being evaluated; -1 marks a node skipped inside a shared or pooled
	// subtree. seen is the per-call ID table behind it. placed/shared count
	// this call's placements and how many of them were aliases.
	rep            []int32
	seen           map[plan.ID]placement
	placed, shared int

	// Node slabs: embedding, G/R representations, tanh(G) cache (training).
	eBuf, gBuf, rBuf, tBuf []float64

	// Per-level state, retained so training backward can replay it: the
	// representation cell's matrices per plan level (a RepNN level uses only
	// zt, its [n×(de+2dh)] input). nnPre is the RepNN pre-activation
	// ([dh×n]) of the level being evaluated.
	cells []cellMats
	nnPre tensor.Mat

	// Predicate-tree machinery.
	predBase      []int
	items         []predItem
	itemHeights   []int
	byLevel       [][]predItem
	predHs        []int
	pOut, pG      []float64
	ptBuf         []float64  // tanh of predicate G (training, PredLSTM)
	pcells        []cellMats // predicate cell per predicate level (PredLSTM)
	pxt, pleafOut tensor.Mat // pool-variant leaf GEMM (level 0)

	// Estimation heads.
	headItems    []headItem
	headR        tensor.Mat
	rView        tensor.Mat // node-major view over rBuf (training heads)
	hCost, hCard tensor.Mat
	sCost, sCard []float64
	out          []Estimate

	// Backward state (training only, sized lazily; see batch_backward.go).
	dCostS, dCardS []float64
	dG, dR, dE     []float64
	dPre           []float64
	dH             tensor.Mat
	grads          cellGrads // per-level scratch, plan and predicate levels
	dPOut, dPG     []float64
	dLeaf          tensor.Mat
}

// placement records where the first occurrence of a sub-plan landed: its
// global node id and level (-1 when the pool served it).
type placement struct{ id, level int32 }

// headItem addresses one head evaluation: a plan's root (cost) or its
// cardinality node.
type headItem struct {
	plan int
	node int32
}

// NewBatchSession returns a batch session bound to m. Buffers grow on first
// contact with each batch shape and are reused afterwards.
func NewBatchSession(m *Model) *BatchSession {
	return &BatchSession{
		m: m, de: m.embedDim(), dh: m.Cfg.Hidden, eh: m.Cfg.EstHidden,
		epd: m.ePred, atomDim: m.Enc.AtomDim(),
		seen: make(map[plan.ID]placement),
	}
}

// Rebind points the session at a different model sharing the original's
// configuration and encoder — a hot-swapped snapshot. Arenas are sized by
// the configuration alone and every pass reads s.m afresh, so the rebind is
// one pointer store; it panics if the models are not interchangeable. The
// caller owns concurrency: a session must not be rebound while it is
// evaluating.
func (s *BatchSession) Rebind(m *Model) {
	if m.Cfg != s.m.Cfg || m.Enc != s.m.Enc {
		panic("core: Rebind across different model configurations")
	}
	s.m = m
}

// EstimateBatch evaluates many plans with the width-first batching of
// Section 4.3 (see Model.EstimateBatch for the algorithm). The returned
// slice is owned by the session and overwritten by the next call.
func (s *BatchSession) EstimateBatch(eps []*feature.EncodedPlan) []Estimate {
	return s.run(eps, nil, false)
}

// EstimateBatchWithPool is EstimateBatch with a representation memory pool
// (Section 3): sub-plans whose IDs hit the pool have their stored
// G/R injected into the batch slabs up front and their subtrees skip the
// level sweep entirely; newly computed sub-plan representations are
// inserted afterwards. The returned slice is owned by the session.
func (s *BatchSession) EstimateBatchWithPool(eps []*feature.EncodedPlan, pool *MemoryPool) []Estimate {
	return s.run(eps, pool, false)
}

// EstimateWithPool evaluates one plan as a batch of one and returns
// denormalized estimates: the cost at the root, and the cardinality at the
// topmost non-aggregate node (aggregates always emit one row, so the query's
// cardinality is defined below them). With a representation memory pool (nil
// for none), sub-plans already in the pool reuse their stored
// representations, and new sub-plan representations are inserted (the
// paper's online workflow, Section 3). The warm path performs zero heap
// allocations, the property that lets the estimator sit inside an
// optimizer's plan-enumeration loop (the paper's Table 12 use case).
//
// costlint:noalloc
func (s *BatchSession) EstimateWithPool(ep *feature.EncodedPlan, pool *MemoryPool) (cost, card float64) {
	s.one[0] = ep
	e := s.run(s.one[:], pool, false)[0]
	s.one[0] = nil
	s.releasePlans()
	return e.Cost, e.Card
}

// slab accessors

func (s *BatchSession) eOf(id int) []float64 { return s.eBuf[id*s.de : (id+1)*s.de] }
func (s *BatchSession) gOf(id int) []float64 { return s.gBuf[id*s.dh : (id+1)*s.dh] }
func (s *BatchSession) rOf(id int) []float64 { return s.rBuf[id*s.dh : (id+1)*s.dh] }

func (s *BatchSession) pOutOf(flat int) []float64 { return s.pOut[flat*s.epd : (flat+1)*s.epd] }
func (s *BatchSession) pGOf(flat int) []float64   { return s.pG[flat*s.epd : (flat+1)*s.epd] }

// tOf and ptOf return a node's tanh(G) cache row on a training pass and nil
// on an inference pass, which retains none.
func (s *BatchSession) tOf(id int) []float64 {
	if !s.train {
		return nil
	}
	return s.tBuf[id*s.dh : (id+1)*s.dh]
}

func (s *BatchSession) ptOf(flat int) []float64 {
	if !s.train {
		return nil
	}
	return s.ptBuf[flat*s.epd : (flat+1)*s.epd]
}

// flatOf maps one predicate-tree node of one plan node to its arena slot (a
// tree's nodes occupy consecutive slots from the tree's base).
func (s *BatchSession) flatOf(plan int, node int32, pidx int) int {
	return s.predBase[s.offsets[plan]+int(node)] + pidx
}

// predNode returns the predicate-tree node an item addresses.
func (s *BatchSession) predNode(it predItem) *feature.PredNode {
	return &s.eps[it.plan].Nodes[it.node].Pred.Nodes[it.pidx]
}

// childOf returns the G and R rows of a plan node's child (in-plan index
// idx; nil rows when idx < 0), read through the child's representative.
func (s *BatchSession) childOf(base, idx int) (g, r []float64) {
	if idx < 0 {
		return nil, nil
	}
	id := int(s.rep[base+idx])
	return s.gOf(id), s.rOf(id)
}

// predChildOf is childOf for a child (tree index pidx) of a predicate-tree
// node of item it.
func (s *BatchSession) predChildOf(it predItem, pidx int) (g, r []float64) {
	if pidx < 0 {
		return nil, nil
	}
	fl := s.flatOf(it.plan, it.node, pidx)
	return s.pGOf(fl), s.pOutOf(fl)
}

// releasePlans drops the session's references to the last batch's plans (the
// item/level lists hold only indices, the ID table only values) so an idle
// pooled session does not pin caller memory. Arenas stay warm.
func (s *BatchSession) releasePlans() {
	s.eps = nil
}

// run is the shared forward driver for inference and training passes.
func (s *BatchSession) run(eps []*feature.EncodedPlan, pool *MemoryPool, train bool) []Estimate {
	s.train = train
	s.eps = eps
	if len(eps) == 0 {
		return nil
	}
	s.layout(pool)

	// Phase 1: simple-feature embeddings (sparse), then predicate embeddings
	// batched level-wise across every predicate tree.
	for _, it := range s.all {
		s.m.embedSimple(&s.eps[it.plan].Nodes[it.node], s.eOf(s.offsets[it.plan]+int(it.node)))
	}
	s.batchPreds()

	// Phase 2: level-by-level batched representation evaluation.
	for d, lv := range s.levels {
		if len(lv) == 0 {
			continue
		}
		switch s.m.Cfg.Rep {
		case RepLSTM:
			s.levelLSTM(d)
		case RepNN:
			s.levelNN(d)
		}
	}

	// Phase 3: estimation heads — every node for training (sub-plan
	// supervision), only roots and cardinality nodes for serving.
	if train {
		s.rView = tensor.Mat{Rows: s.total, Cols: s.dh, Data: s.rBuf[:s.total*s.dh]}
		s.evalHeadsMat(&s.rView)
		return nil
	}
	s.headsTop()
	if pool != nil {
		s.insertAll(pool)
	}
	return s.out
}

// levelLSTM evaluates plan level d through the representation cell: fill
// every row from its children and embedding, run the four gate GEMMs, finish
// every row into the G/R slabs.
func (s *BatchSession) levelLSTM(d int) {
	lv, c := s.levels[d], &s.cells[d]
	c.size(len(lv), s.dh, s.de)
	for j, it := range lv {
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		gl, rl := s.childOf(base, node.Left)
		gr, rr := s.childOf(base, node.Right)
		c.fill(j, gl, rl, gr, rr, s.eOf(base+int(it.node)))
	}
	c.gates(s.m.repCell)
	for j, it := range lv {
		id := s.offsets[it.plan] + int(it.node)
		c.finish(j, s.gOf(id), s.rOf(id), s.tOf(id))
	}
}

// levelNN evaluates plan level d through the RepNN layer: R = ReLU(W·[E,
// R^l, R^r] + b) as one GEMM over the level's input rows.
func (s *BatchSession) levelNN(d int) {
	lv, zt := s.levels[d], &s.cells[d].zt
	n := len(lv)
	de, dh := s.de, s.dh
	matInto(zt, n, de+2*dh)
	matInto(&s.nnPre, dh, n)
	for j, it := range lv {
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		zRow := zt.Row(j)
		copy(zRow, s.eOf(base+int(it.node)))
		// Reused buffers: an absent child's segment is re-zeroed explicitly.
		if _, r := s.childOf(base, node.Left); r != nil {
			copy(zRow[de:de+dh], r)
		} else {
			clear(zRow[de : de+dh])
		}
		if _, r := s.childOf(base, node.Right); r != nil {
			copy(zRow[de+dh:], r)
		} else {
			clear(zRow[de+dh:])
		}
	}
	tensor.MatMulTransBInto(&s.nnPre, s.m.repNN.W.Mat(), zt)
	b := s.m.repNN.B.Vec()
	for j, it := range lv {
		r := s.rOf(s.offsets[it.plan] + int(it.node))
		for i := range r {
			v := s.nnPre.Data[i*n+j] + b[i]
			if v < 0 {
				v = 0
			}
			r[i] = v
		}
	}
}

// layout computes the global node addressing for this batch, sizes the
// slabs, and builds the level lists. Training passes take every node (each
// is supervised and keeps its own gradient slot). Inference passes evaluate
// each distinct sub-plan once: subtrees the memory pool holds have their
// representations injected into gBuf/rBuf, and a node whose ID already
// occurred in this batch becomes an alias of that first occurrence. The pool
// alone cannot see such duplicates — it is asked here, before any row of the
// batch exists, and filled by insertAll afterwards.
func (s *BatchSession) layout(pool *MemoryPool) {
	eps := s.eps
	s.offsets = growSlice(s.offsets, len(eps)+1)
	s.offsets[0] = 0
	maxDepth := 0
	for i, ep := range eps {
		s.offsets[i+1] = s.offsets[i] + len(ep.Nodes)
		if ep.Depth() > maxDepth {
			maxDepth = ep.Depth()
		}
	}
	s.total = s.offsets[len(eps)]
	s.eBuf = growSlice(s.eBuf, s.total*s.de)
	s.gBuf = growSlice(s.gBuf, s.total*s.dh)
	s.rBuf = growSlice(s.rBuf, s.total*s.dh)
	if s.train {
		s.tBuf = growSlice(s.tBuf, s.total*s.dh)
	}
	if s.m.Cfg.Rep == RepNN {
		// RepNN has no G channel; keep the slab zero so pool inserts carry
		// a zero G whatever the buffer held before.
		for i := range s.gBuf {
			s.gBuf[i] = 0
		}
	}

	s.levels = growOuter(s.levels, maxDepth)
	s.cells = growKeep(s.cells, maxDepth)

	s.rep = growSlice(s.rep, s.total)
	if s.train {
		for i := range s.rep {
			s.rep[i] = int32(i)
		}
		for pi, ep := range eps {
			for d, nodes := range ep.Levels {
				for _, n := range nodes {
					s.levels[d] = append(s.levels[d], levelItem{plan: pi, node: n})
				}
			}
		}
	} else {
		for i := range s.rep {
			s.rep[i] = -1
		}
		clear(s.seen)
		s.placed, s.shared = 0, 0
		for pi, ep := range eps {
			s.placeNode(pi, ep, ep.Root, pool)
		}
		// The heads read each plan's cardinality node too. One that was
		// skipped — it lies strictly inside a shared or pooled subtree — is
		// placed in its own right (aliased, pooled or computed: a bounded
		// pool may hold a subtree's root and have evicted the node inside).
		for pi, ep := range eps {
			if s.rep[s.offsets[pi]+ep.CardNode] < 0 {
				s.placeNode(pi, ep, ep.CardNode, pool)
			}
		}
	}

	s.all = s.all[:0]
	for _, lv := range s.levels {
		s.all = append(s.all, lv...)
	}
}

// placeNode assigns the subtree at idx to level lists and returns the level
// of the node's representation, -1 when the pool served it. A sub-plan seen
// earlier in this batch aliases that node and its subtree is not visited; a
// sub-plan the pool holds has its G/R copied straight into the slabs so
// parents and heads read them like computed rows; anything else becomes a
// level row one above its children's representatives.
func (s *BatchSession) placeNode(pi int, ep *feature.EncodedPlan, idx int, pool *MemoryPool) int {
	node := &ep.Nodes[idx]
	id := s.offsets[pi] + idx
	s.placed++
	if first, ok := s.seen[node.ID]; ok {
		s.shared++
		s.rep[id] = first.id
		return int(first.level)
	}
	s.rep[id] = int32(id)
	if pool != nil {
		if pool.GetGen(node.ID, s.poolGen, s.gOf(id), s.rOf(id)) {
			s.seen[node.ID] = placement{int32(id), -1}
			return -1
		}
	}
	h := -1
	if node.Left >= 0 {
		h = s.placeNode(pi, ep, node.Left, pool)
	}
	if node.Right >= 0 {
		h = max(h, s.placeNode(pi, ep, node.Right, pool))
	}
	h++
	s.levels[h] = append(s.levels[h], levelItem{plan: pi, node: int32(idx)})
	s.seen[node.ID] = placement{int32(id), int32(h)}
	return h
}

// insertAll offers every freshly computed sub-plan representation to the
// pool (the paper's online workflow); a bounded pool keeps only the ones it
// has been offered before.
func (s *BatchSession) insertAll(pool *MemoryPool) {
	for _, it := range s.all {
		id := s.offsets[it.plan] + int(it.node)
		pool.PutGen(s.eps[it.plan].Nodes[it.node].ID, s.gOf(id), s.rOf(id), s.poolGen)
	}
}

// batchPreds embeds every predicate tree in the batch, level by level: leaf
// vectors run through W_p (pool variants) or the predicate cell (LSTM
// variant) as one GEMM per level, pooling connectives combine elementwise.
// Results land in the pred segment of each node's embedding.
func (s *BatchSession) batchPreds() {
	m := s.m
	s.items = s.items[:0]
	s.itemHeights = s.itemHeights[:0]
	s.predBase = growSlice(s.predBase, s.total)
	for i := range s.predBase {
		s.predBase[i] = -1
	}
	maxH := -1
	for _, it := range s.all {
		node := &s.eps[it.plan].Nodes[it.node]
		if node.Pred.Empty() {
			continue
		}
		if cap(s.predHs) < len(node.Pred.Nodes) {
			s.predHs = make([]int, len(node.Pred.Nodes))
		}
		hs := s.predHs[:len(node.Pred.Nodes)]
		predHeightsInto(&node.Pred, 0, hs)
		s.predBase[s.offsets[it.plan]+int(it.node)] = len(s.items)
		for pidx := range node.Pred.Nodes {
			s.items = append(s.items, predItem{plan: it.plan, node: it.node,
				pidx: int32(pidx), flat: len(s.items)})
			s.itemHeights = append(s.itemHeights, hs[pidx])
			if hs[pidx] > maxH {
				maxH = hs[pidx]
			}
		}
	}
	if len(s.items) == 0 {
		return
	}
	s.pOut = growSlice(s.pOut, len(s.items)*s.epd)
	if m.Cfg.Pred == PredLSTM {
		s.pG = growSlice(s.pG, len(s.items)*s.epd)
		if s.train {
			s.ptBuf = growSlice(s.ptBuf, len(s.items)*s.epd)
		}
		s.pcells = growKeep(s.pcells, maxH+1)
	}
	s.byLevel = growOuter(s.byLevel, maxH+1)
	for k, it := range s.items {
		s.byLevel[s.itemHeights[k]] = append(s.byLevel[s.itemHeights[k]], it)
	}

	for h, lv := range s.byLevel {
		if len(lv) == 0 {
			continue
		}
		switch {
		case m.Cfg.Pred == PredLSTM:
			s.predLevelLSTM(h)
		case h == 0:
			s.predLeaves(lv)
		default:
			s.predPoolLevel(lv)
		}
	}

	// Copy each tree root (pidx 0) into its node's embedding segment.
	predSegOff := m.eOp + m.eMeta + m.eBm
	for _, it := range s.items {
		if it.pidx == 0 {
			id := s.offsets[it.plan] + int(it.node)
			copy(s.eOf(id)[predSegOff:predSegOff+s.epd], s.pOutOf(it.flat))
		}
	}
}

// predLeaves embeds every predicate leaf of the batch (pool variants) as one
// GEMM through W_p. The leaf inputs stay in pxt for training backward.
func (s *BatchSession) predLeaves(lv []predItem) {
	n := len(lv)
	matInto(&s.pxt, n, s.atomDim)
	for j, it := range lv {
		copy(s.pxt.Row(j), s.predNode(it).Vec)
	}
	matInto(&s.pleafOut, s.epd, n)
	tensor.MatMulTransBInto(&s.pleafOut, s.m.predLeaf.W.Mat(), &s.pxt)
	b := s.m.predLeaf.B.Vec()
	for j, it := range lv {
		dst := s.pOutOf(it.flat)
		for i := range dst {
			dst[i] = s.pleafOut.Data[i*n+j] + b[i]
		}
	}
}

// predPoolLevel combines one level of AND/OR connectives elementwise: min
// for AND and max for OR, or the mean under PredPoolMean.
func (s *BatchSession) predPoolLevel(lv []predItem) {
	for _, it := range lv {
		pn := s.predNode(it)
		l := s.pOutOf(s.flatOf(it.plan, it.node, pn.Left))
		r := s.pOutOf(s.flatOf(it.plan, it.node, pn.Right))
		dst := s.pOutOf(it.flat)
		switch {
		case s.m.Cfg.Pred == PredPoolMean:
			tensor.Mean(dst, l, r)
		case pn.Bool == 0:
			tensor.MinInto(dst, l, r)
		default:
			tensor.MaxInto(dst, l, r)
		}
	}
}

// predLevelLSTM evaluates predicate level h through the predicate cell —
// the plan levels' cell, addressed through the predicate slabs.
func (s *BatchSession) predLevelLSTM(h int) {
	lv, c := s.byLevel[h], &s.pcells[h]
	c.size(len(lv), s.epd, s.atomDim)
	for j, it := range lv {
		pn := s.predNode(it)
		gl, rl := s.predChildOf(it, pn.Left)
		gr, rr := s.predChildOf(it, pn.Right)
		c.fill(j, gl, rl, gr, rr, pn.Vec)
	}
	c.gates(s.m.predCell)
	for j, it := range lv {
		c.finish(j, s.pGOf(it.flat), s.pOutOf(it.flat), s.ptOf(it.flat))
	}
}

// headsTop evaluates the estimation heads for each plan's root and
// cardinality node as batched GEMMs and denormalizes into s.out.
func (s *BatchSession) headsTop() {
	s.headItems = s.headItems[:0]
	for i, ep := range s.eps {
		s.headItems = append(s.headItems, headItem{plan: i, node: int32(ep.Root)})
		if ep.CardNode != ep.Root {
			s.headItems = append(s.headItems, headItem{plan: i, node: int32(ep.CardNode)})
		}
	}
	nh := len(s.headItems)
	matInto(&s.headR, nh, s.dh)
	for j, it := range s.headItems {
		copy(s.headR.Row(j), s.rOf(int(s.rep[s.offsets[it.plan]+int(it.node)])))
	}
	s.evalHeadsMat(&s.headR)

	s.out = growSlice(s.out, len(s.eps))
	for j, it := range s.headItems {
		ep := s.eps[it.plan]
		if int(it.node) == ep.Root {
			s.out[it.plan].Cost = s.m.CostNorm.Denormalize(s.sCost[j])
			if ep.CardNode == ep.Root {
				s.out[it.plan].Card = s.m.CardNorm.Denormalize(s.sCard[j])
			}
		} else {
			s.out[it.plan].Card = s.m.CardNorm.Denormalize(s.sCard[j])
		}
	}
}

// evalHeadsMat runs both estimation heads over a node-major representation
// matrix: the hidden layers are single GEMMs (H = R·Wᵀ), the 1-wide sigmoid
// outputs reduce per row. Hidden activations stay resident (hCost/hCard)
// for training backward.
func (s *BatchSession) evalHeadsMat(R *tensor.Mat) {
	nh := R.Rows
	matInto(&s.hCost, nh, s.eh)
	matInto(&s.hCard, nh, s.eh)
	s.sCost = growSlice(s.sCost, nh)
	s.sCard = growSlice(s.sCard, nh)
	m := s.m
	tensor.MatMulTransBInto(&s.hCost, R, m.costH.W.Mat())
	tensor.MatMulTransBInto(&s.hCard, R, m.cardH.W.Mat())
	for j := 0; j < nh; j++ {
		s.sCost[j] = headOut(s.hCost.Row(j), m.costH, m.costO)
		s.sCard[j] = headOut(s.hCard.Row(j), m.cardH, m.cardO)
	}
}

// headOut finishes one head row: the hidden layer's bias and ReLU in place
// (row holds W·R), then the 1-wide sigmoid output layer.
func headOut(row []float64, h, o *nn.Linear) float64 {
	for i, bi := range h.B.Vec() {
		v := row[i] + bi
		if v < 0 {
			v = 0
		}
		row[i] = v
	}
	return sigmoidScalar(tensor.Dot(row, o.W.Mat().Data) + o.B.Vec()[0])
}

// predHeightsInto writes each predicate node's height above the leaves into
// hs and returns the subtree height at i.
func predHeightsInto(ep *feature.EncodedPred, i int, hs []int) int {
	pn := &ep.Nodes[i]
	if pn.IsLeaf {
		hs[i] = 0
		return 0
	}
	l := predHeightsInto(ep, pn.Left, hs)
	r := predHeightsInto(ep, pn.Right, hs)
	h := l
	if r > h {
		h = r
	}
	hs[i] = h + 1
	return h + 1
}

// sizing helpers

// matInto resizes m to rows×cols, reusing its backing array when possible.
// Contents are unspecified — callers overwrite every element.
func matInto(m *tensor.Mat, rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
}

// growSlice returns a length-n slice, reusing s's backing array when it is
// large enough. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growOuter resizes a slice of per-level lists to n levels, keeping every
// inner list's backing array and resetting each to length 0.
func growOuter[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		ns := make([][]T, n)
		copy(ns, s[:cap(s)])
		s = ns
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// growKeep resizes a per-level list to n levels, keeping existing elements
// (and the backing arrays they hold) intact.
func growKeep[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s[:cap(s)])
		s = ns
	}
	return s[:n]
}
