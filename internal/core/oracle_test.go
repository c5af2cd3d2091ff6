package core

import (
	"math"
	"testing"

	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/plan"
	"costest/internal/tensor"
	"costest/internal/workload"
)

// The oracle: a naive recursive forward pass, one node at a time, every
// intermediate freshly allocated — no arenas, no levels, no pool, no
// sessions. It states the model's arithmetic once, in the order the paper
// writes it (Section 4.2), and the batch runtime must match it bit for bit:
// every inner product is tensor.Dot's canonical order, so how a batch was
// composed or short-circuited by the memory pool may not move a single bit.

func oracleSigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func oracleReLU(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// oracleLinear is y = W·x + b, one canonical dot per output row.
func oracleLinear(l *nn.Linear, x []float64) []float64 {
	w, b := l.W.Mat(), l.B.Vec()
	y := make([]float64, w.Rows)
	for i := range y {
		y[i] = tensor.Dot(w.Row(i), x) + b[i]
	}
	return y
}

// oracleSparseReLU is ReLU(b + W·x) for a one-hot/bitmap x (nil = all zero):
// the bias first, then the set bits' columns in ascending order.
func oracleSparseReLU(l *nn.Linear, x []float64) []float64 {
	w, b := l.W.Mat(), l.B.Vec()
	y := make([]float64, w.Rows)
	for i := range y {
		v := b[i]
		for j, xj := range x {
			if xj != 0 {
				v += xj * w.At(i, j)
			}
		}
		y[i] = oracleReLU(v)
	}
	return y
}

// oracleCell is the LSTM-style unit of Section 4.2.2 over absent (nil) or
// present children.
func oracleCell(c *lstmCell, x, gl, rl, gr, rr []float64) (g, r []float64) {
	dh := c.wf.W.Mat().Rows
	gPrev, z := make([]float64, dh), make([]float64, dh, dh+len(x))
	for i := 0; i < dh; i++ {
		var gs, rs float64
		if gl != nil {
			gs, rs = gs+gl[i], rs+rl[i]
		}
		if gr != nil {
			gs, rs = gs+gr[i], rs+rr[i]
		}
		gPrev[i], z[i] = gs/2, rs/2
	}
	z = append(z, x...)
	f, k1, rg, k2 := oracleLinear(c.wf, z), oracleLinear(c.wk1, z), oracleLinear(c.wr, z), oracleLinear(c.wk2, z)
	g, r = make([]float64, dh), make([]float64, dh)
	for i := range g {
		g[i] = oracleSigmoid(f[i])*gPrev[i] + oracleSigmoid(k1[i])*math.Tanh(rg[i])
		r[i] = oracleSigmoid(k2[i]) * math.Tanh(g[i])
	}
	return g, r
}

// oraclePred embeds the predicate subtree at i (Section 4.2.1): min/max (or
// mean) pooling over linear leaves, or the predicate tree-LSTM.
func oraclePred(m *Model, p *feature.EncodedPred, i int) (g, r []float64) {
	pn := &p.Nodes[i]
	var gl, rl, gr, rr []float64
	if pn.Left >= 0 {
		gl, rl = oraclePred(m, p, pn.Left)
	}
	if pn.Right >= 0 {
		gr, rr = oraclePred(m, p, pn.Right)
	}
	if m.Cfg.Pred == PredLSTM {
		return oracleCell(m.predCell, pn.Vec, gl, rl, gr, rr)
	}
	if pn.IsLeaf {
		return nil, oracleLinear(m.predLeaf, pn.Vec)
	}
	r = make([]float64, len(rl))
	for k := range r {
		switch {
		case m.Cfg.Pred == PredPoolMean:
			r[k] = (rl[k] + rr[k]) / 2
		case pn.Bool == 0: // AND
			r[k] = math.Min(rl[k], rr[k])
		default: // OR
			r[k] = math.Max(rl[k], rr[k])
		}
	}
	return nil, r
}

// oracleNode returns the (G, R) representation of the subtree at i.
func oracleNode(m *Model, ep *feature.EncodedPlan, i int) (g, r []float64) {
	n := &ep.Nodes[i]
	var gl, rl, gr, rr []float64
	if n.Left >= 0 {
		gl, rl = oracleNode(m, ep, n.Left)
	}
	if n.Right >= 0 {
		gr, rr = oracleNode(m, ep, n.Right)
	}
	e := append(oracleSparseReLU(m.opL, n.Op), oracleSparseReLU(m.metaL, n.Meta)...)
	if m.bmL != nil {
		e = append(e, oracleSparseReLU(m.bmL, n.Bitmap)...)
	}
	pred := make([]float64, m.ePred)
	if !n.Pred.Empty() {
		_, pred = oraclePred(m, &n.Pred, 0)
	}
	e = append(e, pred...)
	if m.Cfg.Rep == RepLSTM {
		return oracleCell(m.repCell, e, gl, rl, gr, rr)
	}
	// RepNN: R = ReLU(W·[E, Rl, Rr] + b), absent children are zeros.
	dh := m.Cfg.Hidden
	z := make([]float64, len(e)+2*dh)
	copy(z, e)
	copy(z[len(e):], rl)
	copy(z[len(e)+dh:], rr)
	r = oracleLinear(m.repNN, z)
	for k := range r {
		r[k] = oracleReLU(r[k])
	}
	return make([]float64, dh), r
}

// oracleHead is one estimation head (Section 4.2.3) on a representation.
func oracleHead(h, o *nn.Linear, r []float64) float64 {
	hid := oracleLinear(h, r)
	for k := range hid {
		hid[k] = oracleReLU(hid[k])
	}
	return oracleSigmoid(oracleLinear(o, hid)[0])
}

// oracleEstimate is the reference for every Estimate* entry point.
func oracleEstimate(m *Model, ep *feature.EncodedPlan) Estimate {
	_, root := oracleNode(m, ep, ep.Root)
	_, card := oracleNode(m, ep, ep.CardNode)
	return Estimate{
		Cost: m.CostNorm.Denormalize(oracleHead(m.costH, m.costO, root)),
		Card: m.CardNorm.Denormalize(oracleHead(m.cardH, m.cardO, card)),
	}
}

// oracleMatrix drives run — an EstimateBatch entry point; pool is nil for
// the pool-less case — over every architecture variant, batch sizes 1, 7 and
// 64, and three pool states (none; cold then warm; only the plans' root
// representations resident, i.e. the cardinality nodes evicted), demanding
// bit-exact agreement with the oracle throughout.
func oracleMatrix(t *testing.T, run func(m *Model, eps []*feature.EncodedPlan, pool *MemoryPool) []Estimate) {
	corpus := benchCorpus(t, 40)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		want := make(map[*feature.EncodedPlan]Estimate, len(corpus))
		cardBelowRoot := false
		for _, ep := range corpus {
			want[ep] = oracleEstimate(m, ep)
			cardBelowRoot = cardBelowRoot || ep.CardNode != ep.Root
		}
		if !cardBelowRoot {
			t.Fatal("corpus has no plan with CardNode != Root: the evicted-card-node case is vacuous")
		}
		for _, size := range []int{1, 7, 64} {
			eps := make([]*feature.EncodedPlan, size)
			for i := range eps {
				eps[i] = corpus[(i*3+size)%len(corpus)]
			}
			check := func(label string, pool *MemoryPool) {
				t.Helper()
				for i, got := range run(m, eps, pool) {
					if got != want[eps[i]] {
						t.Fatalf("%s/size=%d/%s: plan %d = %+v, oracle %+v",
							variant.name, size, label, i, got, want[eps[i]])
					}
				}
			}
			check("nopool", nil)
			full := NewMemoryPool()
			check("cold pool", full)
			check("warm pool", full)
			if full.HitRate() == 0 {
				t.Fatalf("%s: warm pass produced no pool hits", variant.name)
			}
			rootsOnly := NewMemoryPool()
			for _, ep := range eps {
				sig := ep.Nodes[ep.Root].ID
				g, r, ok := pooledCopy(full, m, sig, full.Generation())
				if !ok {
					t.Fatalf("%s: root representation missing from warm pool", variant.name)
				}
				rootsOnly.PutGen(sig, g, r, rootsOnly.Generation())
			}
			check("card node evicted", rootsOnly)
		}
	}
}

// TestBatchMatchesSequential pins the Model convenience API (pooled
// sessions) to the oracle: EstimateBatch/EstimateBatchWithPool, and for a
// lone plan Estimate/EstimateWithPool, which must be the same batch of one.
func TestBatchMatchesSequential(t *testing.T) {
	oracleMatrix(t, func(m *Model, eps []*feature.EncodedPlan, pool *MemoryPool) []Estimate {
		var out []Estimate
		if pool == nil {
			out = m.EstimateBatch(eps)
		} else {
			out = m.EstimateBatchWithPool(eps, pool)
		}
		if len(eps) == 1 {
			cost, card := m.EstimateWithPool(eps[0], pool)
			if one := (Estimate{cost, card}); one != out[0] {
				t.Fatalf("Model.EstimateWithPool = %+v, batch of one = %+v", one, out[0])
			}
		}
		return out
	})
}

// TestBatchSessionMatchesSequential holds one BatchSession per model across
// the whole matrix, so every call also reuses arenas last shaped by a
// different batch size and pool state.
func TestBatchSessionMatchesSequential(t *testing.T) {
	sessions := map[*Model]*BatchSession{}
	oracleMatrix(t, func(m *Model, eps []*feature.EncodedPlan, pool *MemoryPool) []Estimate {
		s := sessions[m]
		if s == nil {
			s = NewBatchSession(m)
			sessions[m] = s
		}
		return s.EstimateBatchWithPool(eps, pool)
	})
}

// TestSessionReuseMatchesFresh drives one session's single-plan entry across
// many plans in both directions: every estimate must equal the oracle's (and
// so a fresh session's) — stale buffer state leaking between calls would
// show up here.
func TestSessionReuseMatchesFresh(t *testing.T) {
	eps := benchCorpus(t, 16)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		for k := 0; k < 2*len(eps); k++ {
			ep := eps[k%len(eps)]
			if k >= len(eps) {
				ep = eps[2*len(eps)-1-k]
			}
			cost, card := sess.Estimate(ep)
			if got, want := (Estimate{cost, card}), oracleEstimate(m, ep); got != want {
				t.Fatalf("%s: reused session %+v != oracle %+v at step %d", variant.name, got, want, k)
			}
		}
	}
}

// enumBatch builds an enumeration-shaped batch, what an optimizer pricing the
// candidates of a query sends: nine join-operator variants of each of two
// plans with an Aggregate root (every variant shares every scan), one variant
// twice, and the bare join below one variant's Aggregate. The repeated plan's
// root — and the bare join's root, which is another plan's cardinality node —
// alias an earlier node, so a cardinality node lies strictly inside an aliased
// subtree.
func enumBatch(t *testing.T) []*feature.EncodedPlan {
	t.Helper()
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	var roots []*plan.Node
	for _, s := range lab.Label(workload.TrainingStrings(testDB, 4242, 40)) {
		joins := 0
		s.Plan.Walk(func(n *plan.Node) {
			if n.Type.IsJoin() {
				joins++
			}
		})
		if s.Plan.Type == plan.Aggregate && joins >= 2 && len(roots) < 2 {
			roots = append(roots, s.Plan)
		}
	}
	if len(roots) < 2 {
		t.Fatal("corpus has fewer than two Aggregate-rooted plans with two joins")
	}
	var batch []*plan.Node
	for _, root := range roots {
		for v := 0; v < 9; v++ {
			c := root.Clone()
			ops, d := [...]plan.NodeType{plan.HashJoin, plan.MergeJoin, plan.NestedLoop}, v
			c.Walk(func(n *plan.Node) {
				if n.Type.IsJoin() {
					n.Type, d = ops[d%3], d/3
				}
			})
			batch = append(batch, c)
		}
	}
	batch = append(batch, batch[3].Clone(), batch[5].CardinalityNode().Clone())
	eps := make([]*feature.EncodedPlan, len(batch))
	for i, root := range batch {
		ep, err := testEnc.Encode(root)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		eps[i] = ep
	}
	return eps
}

// TestInBatchSharingMatchesOracle: on an enumeration-shaped batch every
// distinct sub-plan is evaluated once — the level rows of a pass are exactly
// the distinct signatures the pool did not serve — and sharing moves no bit:
// all variants, pool-less / cold / warm / cardinality nodes evicted, against
// the naive oracle.
func TestInBatchSharingMatchesOracle(t *testing.T) {
	eps := enumBatch(t)
	nodes := 0
	for _, ep := range eps {
		nodes += len(ep.Nodes)
	}
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		want := make([]Estimate, len(eps))
		for i, ep := range eps {
			want[i] = oracleEstimate(m, ep)
		}
		s := NewBatchSession(m)
		check := func(label string, pool *MemoryPool) {
			t.Helper()
			// The rows this pass must evaluate: walk every plan from its
			// root, and again from its cardinality node, stopping at
			// what the pool serves.
			distinct := map[plan.ID]bool{}
			var walk func(ep *feature.EncodedPlan, i int)
			walk = func(ep *feature.EncodedPlan, i int) {
				if i < 0 {
					return
				}
				if pool != nil {
					if pool.GetGen(ep.Nodes[i].ID, pool.Generation(), nil, nil) {
						return
					}
				}
				distinct[ep.Nodes[i].ID] = true
				walk(ep, ep.Nodes[i].Left)
				walk(ep, ep.Nodes[i].Right)
			}
			for _, ep := range eps {
				walk(ep, ep.Root)
				walk(ep, ep.CardNode)
			}
			for i, got := range s.EstimateBatchWithPool(eps, pool) {
				if got != want[i] {
					t.Fatalf("%s/%s: plan %d = %+v, oracle %+v", variant.name, label, i, got, want[i])
				}
			}
			if len(s.all) != len(distinct) {
				t.Fatalf("%s/%s: evaluated %d level rows for %d distinct unpooled signatures (%d nodes in the batch)",
					variant.name, label, len(s.all), len(distinct), nodes)
			}
			if s.shared == 0 || s.placed <= s.shared {
				t.Fatalf("%s/%s: placed %d, shared %d: the batch shares sub-plans", variant.name, label, s.placed, s.shared)
			}
		}
		check("nopool", nil)
		if len(s.all)*2 > nodes {
			t.Fatalf("%s: %d rows for %d nodes: the batch is not enumeration-shaped", variant.name, len(s.all), nodes)
		}
		full := NewMemoryPool()
		check("cold pool", full)
		check("warm pool", full)
		rootsOnly := NewMemoryPool()
		for _, ep := range eps {
			sig := ep.Nodes[ep.Root].ID
			g, r, ok := pooledCopy(full, m, sig, full.Generation())
			if !ok {
				t.Fatalf("%s: root representation missing from warm pool", variant.name)
			}
			rootsOnly.PutGen(sig, g, r, rootsOnly.Generation())
		}
		check("card node evicted", rootsOnly)
	}
}

// TestInBatchSharingZeroAlloc: the signature table is part of the warm path —
// a served enumeration-shaped batch allocates nothing, pool-less or against a
// warm pool, and the server's sharing counters see it.
func TestInBatchSharingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eps := enumBatch(t)
	out := make([]Estimate, len(eps))
	for name, pool := range map[string]*MemoryPool{"nopool": nil, "warm pool": NewMemoryPool()} {
		srv := NewServer(New(TestConfig(), testEnc), pool)
		srv.EstimateBatchInto(eps, out)
		if allocs := testing.AllocsPerRun(50, func() { srv.EstimateBatchInto(eps, out) }); allocs != 0 {
			t.Errorf("%s: warm EstimateBatchInto allocates %.1f objects/op on a sharing batch, want 0", name, allocs)
		}
		if st := srv.SharingStats(); st.NodesShared == 0 || st.NodesPlaced <= st.NodesShared {
			t.Errorf("%s: sharing counters %+v after serving a sharing batch", name, st)
		}
	}
}
