package core

import (
	"math"
	"sync"

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
// EstimateWithPool): there is no second, per-node evaluator.
//
// The parallel kernels are bound once at construction (the fn* fields) so
// that repeated calls never materialize fresh closures; per-level context
// travels through session fields (lvi/plvi) instead of captures. With
// workers <= 1 every kernel runs inline, which is the allocation-free path
// that AllocsPerRun tests enforce; with more workers the same kernels are
// fanned out through parallelFor.
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

	workers int
	train   bool

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

	// Per-level GEMM state. zt/gPrev are node-major ([n×in], [n×dh]); the
	// gate pre-activation outputs f/k1/r/k2 are gate-major ([dh×n]); nnPre
	// is the RepNN pre-activation ([dh×n]). Retained per level so training
	// backward can replay them.
	zt, gPrev, f, k1, r, k2, nnPre []tensor.Mat

	// Predicate-tree machinery.
	predBase         []int
	items            []predItem
	itemHeights      []int
	byLevel          [][]predItem
	predHs           []int
	pOut, pG         []float64
	ptBuf            []float64 // tanh of predicate G (training, PredLSTM)
	pzt, pgPrev      []tensor.Mat
	pf, pk1, pr, pk2 []tensor.Mat
	pxt, pleafOut    tensor.Mat // pool-variant leaf GEMM (level 0)

	// Estimation heads.
	headItems    []headItem
	headR        tensor.Mat
	rView        tensor.Mat // node-major view over rBuf (training heads)
	hCost, hCard tensor.Mat
	sCost, sCard []float64
	out          []Estimate

	// Current-level context read by the prebound kernels.
	lvi  int // plan level index
	plvi int // predicate level index

	// Backward state (training only, sized lazily; see batch_backward.go).
	dCostS, dCardS                   []float64
	dG, dR, dE                       []float64
	dPre                             []float64
	dH                               tensor.Mat
	dF, dK1, dRM, dK2, dGp, dZ       tensor.Mat
	dPOut, dPG                       []float64
	dPF, dPK1, dPRM, dPK2, dPGp, dPZ tensor.Mat
	dLeaf                            tensor.Mat
	// Head-backward context read by fnHeadBack (headBackOne runs twice per
	// pass, once per estimation head).
	bwdH  *tensor.Mat
	bwdWo []float64

	// Prebound parallel kernels (see bindKernels and bindBackwardKernels).
	fnEmbed, fnPredRoot                 func(int)
	fnPredLeafGather, fnPredLeafScatter func(int)
	fnPredPoolCombine                   func(int)
	fnPredCellFill, fnPredCellFinish    func(int)
	fnCellFill, fnCellFinish            func(int)
	fnNNFill, fnNNFinish                func(int)
	fnHeadFinish                        func(int)
	fnHeadBack                          func(int)
	fnBwdCellGrads, fnBwdCellScatter    func(int)
	fnBwdNNGrads, fnBwdNNScatter        func(int)
	fnBwdPredPool                       func(int)
	fnBwdPredGrads, fnBwdPredScatter    func(int)
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
	s := &BatchSession{
		m: m, de: m.embedDim(), dh: m.Cfg.Hidden, eh: m.Cfg.EstHidden,
		epd: m.ePred, atomDim: m.Enc.AtomDim(),
		seen: make(map[plan.ID]placement),
	}
	s.bindKernels()
	s.bindBackwardKernels()
	return s
}

// Rebind points the session at a different model sharing the original's
// configuration and encoder — a hot-swapped snapshot. Arenas are sized by
// the configuration alone and the prebound kernels read s.m per call, so
// the rebind is one pointer store; it panics if the models are not
// interchangeable. The caller owns concurrency: a session must not be
// rebound while it is evaluating.
func (s *BatchSession) Rebind(m *Model) {
	if m.Cfg != s.m.Cfg || m.Enc != s.m.Enc {
		panic("core: Rebind across different model configurations")
	}
	s.m = m
}

// EstimateBatch evaluates many plans with the width-first batching of
// Section 4.3 (see Model.EstimateBatch for the algorithm). The returned
// slice is owned by the session and overwritten by the next call.
func (s *BatchSession) EstimateBatch(eps []*feature.EncodedPlan, workers int) []Estimate {
	return s.run(eps, nil, workers, false)
}

// EstimateBatchWithPool is EstimateBatch with a representation memory pool
// (Section 3): sub-plans whose IDs hit the pool have their stored
// G/R injected into the batch slabs up front and their subtrees skip the
// level sweep entirely; newly computed sub-plan representations are
// inserted afterwards. The returned slice is owned by the session.
func (s *BatchSession) EstimateBatchWithPool(eps []*feature.EncodedPlan, pool *MemoryPool, workers int) []Estimate {
	return s.run(eps, pool, workers, false)
}

// Estimate evaluates one plan as a batch of one and returns denormalized
// estimates: the cost at the root, and the cardinality at the topmost
// non-aggregate node (aggregates always emit one row, so the query's
// cardinality is defined below them). The warm path performs zero heap
// allocations, the property that lets the estimator sit inside an
// optimizer's plan-enumeration loop (the paper's Table 12 use case).
//
// costlint:noalloc
func (s *BatchSession) Estimate(ep *feature.EncodedPlan) (cost, card float64) {
	return s.EstimateWithPool(ep, nil)
}

// EstimateWithPool is Estimate with a representation memory pool (nil for
// none): sub-plans already in the pool reuse their stored representations,
// and new sub-plan representations are inserted (the paper's online
// workflow, Section 3).
//
// costlint:noalloc
func (s *BatchSession) EstimateWithPool(ep *feature.EncodedPlan, pool *MemoryPool) (cost, card float64) {
	s.one[0] = ep
	e := s.run(s.one[:], pool, 1, false)[0]
	s.one[0] = nil
	s.releasePlans()
	return e.Cost, e.Card
}

// slab accessors

func (s *BatchSession) eOf(id int) []float64 { return s.eBuf[id*s.de : (id+1)*s.de] }
func (s *BatchSession) gOf(id int) []float64 { return s.gBuf[id*s.dh : (id+1)*s.dh] }
func (s *BatchSession) rOf(id int) []float64 { return s.rBuf[id*s.dh : (id+1)*s.dh] }
func (s *BatchSession) tOf(id int) []float64 { return s.tBuf[id*s.dh : (id+1)*s.dh] }

func (s *BatchSession) pOutOf(flat int) []float64 { return s.pOut[flat*s.epd : (flat+1)*s.epd] }
func (s *BatchSession) pGOf(flat int) []float64   { return s.pG[flat*s.epd : (flat+1)*s.epd] }
func (s *BatchSession) ptOf(flat int) []float64   { return s.ptBuf[flat*s.epd : (flat+1)*s.epd] }

// flatOf maps one predicate-tree node of one plan node to its arena slot (a
// tree's nodes occupy consecutive slots from the tree's base).
func (s *BatchSession) flatOf(plan int, node int32, pidx int) int {
	return s.predBase[s.offsets[plan]+int(node)] + pidx
}

// releasePlans drops the session's references to the last batch's plans (the
// item/level lists hold only indices, the ID table only values) so an idle
// pooled session does not pin caller memory. Arenas stay warm.
func (s *BatchSession) releasePlans() {
	s.eps = nil
}

// parRun executes fn(0..n-1), inline when the session is single-worker and
// via parallelFor otherwise. fn must be one of the prebound kernels so the
// sequential path stays allocation-free.
func (s *BatchSession) parRun(n int, fn func(int)) {
	if s.workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	parallelFor(n, s.workers, fn)
}

// run is the shared forward driver for inference and training passes.
func (s *BatchSession) run(eps []*feature.EncodedPlan, pool *MemoryPool, workers int, train bool) []Estimate {
	s.workers = resolveWorkers(workers)
	s.train = train
	s.eps = eps
	if len(eps) == 0 {
		return nil
	}
	s.layout(pool)

	// Phase 1: simple-feature embeddings (parallel, sparse), then predicate
	// embeddings batched level-wise across every predicate tree.
	s.parRun(len(s.all), s.fnEmbed)
	s.batchPreds()

	// Phase 2: level-by-level batched representation evaluation.
	for d := range s.levels {
		lv := s.levels[d]
		if len(lv) == 0 {
			continue
		}
		s.lvi = d
		n := len(lv)
		switch s.m.Cfg.Rep {
		case RepLSTM:
			matInto(&s.zt[d], n, s.dh+s.de)
			matInto(&s.gPrev[d], n, s.dh)
			matInto(&s.f[d], s.dh, n)
			matInto(&s.k1[d], s.dh, n)
			matInto(&s.r[d], s.dh, n)
			matInto(&s.k2[d], s.dh, n)
			s.parRun(n, s.fnCellFill)
			s.runGates(s.m.repCell, &s.zt[d], &s.f[d], &s.k1[d], &s.r[d], &s.k2[d])
			s.parRun(n, s.fnCellFinish)
		case RepNN:
			matInto(&s.zt[d], n, s.de+2*s.dh)
			matInto(&s.nnPre[d], s.dh, n)
			s.parRun(n, s.fnNNFill)
			tensor.MatMulTransBInto(&s.nnPre[d], s.m.repNN.W.Mat(), &s.zt[d])
			s.parRun(n, s.fnNNFinish)
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
	s.zt = growMats(s.zt, maxDepth)
	s.gPrev = growMats(s.gPrev, maxDepth)
	s.f = growMats(s.f, maxDepth)
	s.k1 = growMats(s.k1, maxDepth)
	s.r = growMats(s.r, maxDepth)
	s.k2 = growMats(s.k2, maxDepth)
	s.nnPre = growMats(s.nnPre, maxDepth)

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
		s.pzt = growMats(s.pzt, maxH+1)
		s.pgPrev = growMats(s.pgPrev, maxH+1)
		s.pf = growMats(s.pf, maxH+1)
		s.pk1 = growMats(s.pk1, maxH+1)
		s.pr = growMats(s.pr, maxH+1)
		s.pk2 = growMats(s.pk2, maxH+1)
	}
	s.byLevel = growOuter(s.byLevel, maxH+1)
	for k, it := range s.items {
		s.byLevel[s.itemHeights[k]] = append(s.byLevel[s.itemHeights[k]], it)
	}

	for h := range s.byLevel {
		lv := s.byLevel[h]
		if len(lv) == 0 {
			continue
		}
		s.plvi = h
		n := len(lv)
		switch m.Cfg.Pred {
		case PredPool, PredPoolMean:
			if h == 0 {
				// All leaves: one GEMM through W_p.
				matInto(&s.pxt, n, s.atomDim)
				s.parRun(n, s.fnPredLeafGather)
				matInto(&s.pleafOut, s.epd, n)
				tensor.MatMulTransBInto(&s.pleafOut, m.predLeaf.W.Mat(), &s.pxt)
				s.parRun(n, s.fnPredLeafScatter)
			} else {
				s.parRun(n, s.fnPredPoolCombine)
			}
		case PredLSTM:
			matInto(&s.pzt[h], n, s.epd+s.atomDim)
			matInto(&s.pgPrev[h], n, s.epd)
			matInto(&s.pf[h], s.epd, n)
			matInto(&s.pk1[h], s.epd, n)
			matInto(&s.pr[h], s.epd, n)
			matInto(&s.pk2[h], s.epd, n)
			s.parRun(n, s.fnPredCellFill)
			s.runGates(m.predCell, &s.pzt[h], &s.pf[h], &s.pk1[h], &s.pr[h], &s.pk2[h])
			s.parRun(n, s.fnPredCellFinish)
		}
	}

	// Copy each tree root (pidx 0) into its node's embedding segment.
	s.parRun(len(s.items), s.fnPredRoot)
}

// runGates evaluates the four cell gates over a level: pre = W·ztᵀ, then
// bias + nonlinearity in place. The four products are independent; they run
// inline on a single-worker session and overlapped otherwise.
func (s *BatchSession) runGates(cell *lstmCell, zt *tensor.Mat, f, k1, r, k2 *tensor.Mat) {
	if s.workers <= 1 {
		gateRun(f, cell.wf, zt, sigmoidScalar)
		gateRun(k1, cell.wk1, zt, sigmoidScalar)
		gateRun(r, cell.wr, zt, math.Tanh)
		gateRun(k2, cell.wk2, zt, sigmoidScalar)
		return
	}
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { defer wg.Done(); gateRun(f, cell.wf, zt, sigmoidScalar) }()
	go func() { defer wg.Done(); gateRun(k1, cell.wk1, zt, sigmoidScalar) }()
	go func() { defer wg.Done(); gateRun(r, cell.wr, zt, math.Tanh) }()
	go func() { defer wg.Done(); gateRun(k2, cell.wk2, zt, sigmoidScalar) }()
	wg.Wait()
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
	tensor.MatMulTransBInto(&s.hCost, R, s.m.costH.W.Mat())
	tensor.MatMulTransBInto(&s.hCard, R, s.m.cardH.W.Mat())
	s.parRun(nh, s.fnHeadFinish)
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

// bindKernels allocates the session's parallel kernels once. Each reads its
// loop context from session fields (lvi/plvi and the per-level matrices) so
// steady-state calls never materialize new closures.
func (s *BatchSession) bindKernels() {
	// Kernels resolve s.m on every call (not a captured copy) so Rebind can
	// hot-swap the model without re-binding closures.
	s.fnEmbed = func(k int) {
		it := s.all[k]
		node := &s.eps[it.plan].Nodes[it.node]
		s.m.embedSimple(node, s.eOf(s.offsets[it.plan]+int(it.node)))
	}

	s.fnPredRoot = func(k int) {
		it := s.items[k]
		if it.pidx != 0 {
			return
		}
		m := s.m
		predSegOff := m.eOp + m.eMeta + m.eBm
		id := s.offsets[it.plan] + int(it.node)
		copy(s.eOf(id)[predSegOff:predSegOff+s.epd], s.pOutOf(it.flat))
	}

	s.fnPredLeafGather = func(j int) {
		it := s.byLevel[s.plvi][j]
		copy(s.pxt.Row(j), s.eps[it.plan].Nodes[it.node].Pred.Nodes[it.pidx].Vec)
	}

	s.fnPredLeafScatter = func(j int) {
		lv := s.byLevel[s.plvi]
		n := len(lv)
		b := s.m.predLeaf.B.Vec()
		dst := s.pOutOf(lv[j].flat)
		for i := 0; i < s.epd; i++ {
			dst[i] = s.pleafOut.Data[i*n+j] + b[i]
		}
	}

	s.fnPredPoolCombine = func(j int) {
		it := s.byLevel[s.plvi][j]
		pn := &s.eps[it.plan].Nodes[it.node].Pred.Nodes[it.pidx]
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

	s.fnPredCellFill = func(j int) {
		it := s.byLevel[s.plvi][j]
		pn := &s.eps[it.plan].Nodes[it.node].Pred.Nodes[it.pidx]
		epd := s.epd
		var gl, rl, gr, rr []float64
		if pn.Left >= 0 {
			fl := s.flatOf(it.plan, it.node, pn.Left)
			gl, rl = s.pGOf(fl), s.pOutOf(fl)
		}
		if pn.Right >= 0 {
			fr := s.flatOf(it.plan, it.node, pn.Right)
			gr, rr = s.pGOf(fr), s.pOutOf(fr)
		}
		zRow := s.pzt[s.plvi].Row(j)
		gRow := s.pgPrev[s.plvi].Row(j)
		for i := 0; i < epd; i++ {
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
		copy(zRow[epd:], pn.Vec)
	}

	s.fnPredCellFinish = func(j int) {
		lv := s.byLevel[s.plvi]
		n := len(lv)
		it := lv[j]
		g := s.pGOf(it.flat)
		rOut := s.pOutOf(it.flat)
		gRow := s.pgPrev[s.plvi].Row(j)
		f, k1, r, k2 := &s.pf[s.plvi], &s.pk1[s.plvi], &s.pr[s.plvi], &s.pk2[s.plvi]
		if s.train {
			tRow := s.ptOf(it.flat)
			for i := 0; i < s.epd; i++ {
				gt := f.Data[i*n+j]*gRow[i] + k1.Data[i*n+j]*r.Data[i*n+j]
				g[i] = gt
				t := math.Tanh(gt)
				tRow[i] = t
				rOut[i] = k2.Data[i*n+j] * t
			}
			return
		}
		for i := 0; i < s.epd; i++ {
			gt := f.Data[i*n+j]*gRow[i] + k1.Data[i*n+j]*r.Data[i*n+j]
			g[i] = gt
			rOut[i] = k2.Data[i*n+j] * math.Tanh(gt)
		}
	}

	s.fnCellFill = func(j int) {
		it := s.levels[s.lvi][j]
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		dh := s.dh
		var gl, rl, gr, rr []float64
		if node.Left >= 0 {
			li := int(s.rep[base+node.Left])
			gl, rl = s.gOf(li), s.rOf(li)
		}
		if node.Right >= 0 {
			ri := int(s.rep[base+node.Right])
			gr, rr = s.gOf(ri), s.rOf(ri)
		}
		zRow := s.zt[s.lvi].Row(j)
		gRow := s.gPrev[s.lvi].Row(j)
		for i := 0; i < dh; i++ {
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
		copy(zRow[dh:], s.eOf(base+int(it.node)))
	}

	s.fnCellFinish = func(j int) {
		lv := s.levels[s.lvi]
		n := len(lv)
		it := lv[j]
		id := s.offsets[it.plan] + int(it.node)
		g := s.gOf(id)
		rOut := s.rOf(id)
		gRow := s.gPrev[s.lvi].Row(j)
		f, k1, r, k2 := &s.f[s.lvi], &s.k1[s.lvi], &s.r[s.lvi], &s.k2[s.lvi]
		if s.train {
			tRow := s.tOf(id)
			for i := 0; i < s.dh; i++ {
				gt := f.Data[i*n+j]*gRow[i] + k1.Data[i*n+j]*r.Data[i*n+j]
				g[i] = gt
				t := math.Tanh(gt)
				tRow[i] = t
				rOut[i] = k2.Data[i*n+j] * t
			}
			return
		}
		for i := 0; i < s.dh; i++ {
			gt := f.Data[i*n+j]*gRow[i] + k1.Data[i*n+j]*r.Data[i*n+j]
			g[i] = gt
			rOut[i] = k2.Data[i*n+j] * math.Tanh(gt)
		}
	}

	s.fnNNFill = func(j int) {
		it := s.levels[s.lvi][j]
		node := &s.eps[it.plan].Nodes[it.node]
		base := s.offsets[it.plan]
		de, dh := s.de, s.dh
		zRow := s.zt[s.lvi].Row(j)
		copy(zRow, s.eOf(base+int(it.node)))
		if node.Left >= 0 {
			copy(zRow[de:de+dh], s.rOf(int(s.rep[base+node.Left])))
		} else {
			// Reused buffers: absent children must be re-zeroed explicitly.
			for i := de; i < de+dh; i++ {
				zRow[i] = 0
			}
		}
		if node.Right >= 0 {
			copy(zRow[de+dh:], s.rOf(int(s.rep[base+node.Right])))
		} else {
			for i := de + dh; i < len(zRow); i++ {
				zRow[i] = 0
			}
		}
	}

	s.fnNNFinish = func(j int) {
		lv := s.levels[s.lvi]
		n := len(lv)
		it := lv[j]
		r := s.rOf(s.offsets[it.plan] + int(it.node))
		pre := &s.nnPre[s.lvi]
		b := s.m.repNN.B.Vec()
		for i := 0; i < s.dh; i++ {
			v := pre.Data[i*n+j] + b[i]
			if v < 0 {
				v = 0
			}
			r[i] = v
		}
	}

	s.fnHeadFinish = func(j int) {
		m := s.m
		hb := m.costH.B.Vec()
		row := s.hCost.Row(j)
		for i, bi := range hb {
			v := row[i] + bi
			if v < 0 {
				v = 0
			}
			row[i] = v
		}
		s.sCost[j] = sigmoidScalar(tensor.Dot(row, m.costO.W.Mat().Data) + m.costO.B.Vec()[0])

		hb = m.cardH.B.Vec()
		row = s.hCard.Row(j)
		for i, bi := range hb {
			v := row[i] + bi
			if v < 0 {
				v = 0
			}
			row[i] = v
		}
		s.sCard[j] = sigmoidScalar(tensor.Dot(row, m.cardO.W.Mat().Data) + m.cardO.B.Vec()[0])
	}
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

// growMats resizes a per-level matrix list, keeping existing matrices (and
// their backing arrays) intact.
func growMats(s []tensor.Mat, n int) []tensor.Mat {
	if cap(s) < n {
		ns := make([]tensor.Mat, n)
		copy(ns, s[:cap(s)])
		s = ns
	}
	return s[:n]
}
