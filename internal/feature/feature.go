// Package feature extracts and encodes plan-node features the way
// Section 4.1 of the paper prescribes: physical operation one-hot vectors,
// metadata bitmaps over columns/tables/indexes, predicate trees encoded
// atom-by-atom as ⟨column, operator, operand⟩ vectors (numeric operands
// normalized, string operands embedded), and per-table sample bitmaps. It
// also lays plans out in the level-order form used for batch training
// (Section 4.3).
package feature

import (
	"fmt"

	"costest/internal/plan"
	"costest/internal/sqlpred"
	"costest/internal/stats"
	"costest/internal/strembed"
)

// Encoder turns physical plans into model-ready tensors.
type Encoder struct {
	Cat *stats.Catalog
	Str strembed.StringEncoder
	// UseSampleBitmap toggles the Sample Bitmap feature (the paper's
	// "Sample" ablation column in Table 6).
	UseSampleBitmap bool
}

// NewEncoder builds an encoder over the catalog with the given string
// operand encoder.
func NewEncoder(cat *stats.Catalog, str strembed.StringEncoder, useSampleBitmap bool) *Encoder {
	return &Encoder{Cat: cat, Str: str, UseSampleBitmap: useSampleBitmap}
}

// Feature dimensions.

// OpDim is the operation one-hot width.
func (e *Encoder) OpDim() int { return int(plan.NumNodeTypes) }

// MetaDim is the metadata bitmap width: columns ∪ tables ∪ indexes.
func (e *Encoder) MetaDim() int {
	s := e.Cat.DB.Schema
	return s.NumColumns() + s.NumTables() + s.NumIndexes()
}

// BitmapDim is the sample-bitmap width (0 when disabled).
func (e *Encoder) BitmapDim() int {
	if !e.UseSampleBitmap {
		return 0
	}
	return e.Cat.SampleSize
}

// AtomDim is the width of one predicate-tree node vector:
// [isAnd, isOr | column one-hot | operator one-hot | numeric operand | string embedding].
func (e *Encoder) AtomDim() int {
	return 2 + e.Cat.DB.Schema.NumColumns() + int(sqlpred.NumOps) + 1 + e.Str.Dim()
}

// PredNode is one node of an encoded predicate tree, in DFS preorder.
type PredNode struct {
	IsLeaf      bool
	Bool        sqlpred.BoolKind // for internal nodes
	Vec         []float64        // AtomDim features
	Left, Right int              // indices into EncodedPred.Nodes; -1 for leaves
}

// EncodedPred is a predicate tree with per-node feature vectors. Nodes[0] is
// the root when non-empty.
type EncodedPred struct {
	Nodes []PredNode
}

// Empty reports whether there is no predicate.
func (p *EncodedPred) Empty() bool { return len(p.Nodes) == 0 }

// EncodedNode is one encoded plan node.
type EncodedNode struct {
	Op     []float64 // operation one-hot
	Meta   []float64 // metadata bitmap
	Bitmap []float64 // sample bitmap (nil when disabled/absent)
	Pred   EncodedPred
	Left   int // child indices into EncodedPlan.Nodes; -1 when absent
	Right  int

	// ID identifies the subtree rooted here; it keys the representation
	// memory pool.
	ID plan.ID

	// Supervision targets copied from the executed plan.
	TrueRows float64
	TrueCost float64
}

// EncodedPlan is a fully encoded plan tree.
type EncodedPlan struct {
	Nodes []EncodedNode
	Root  int
	// Levels lists node indices grouped by height above the leaves
	// (Levels[0] = leaves), the width-first layout of Section 4.3.
	Levels [][]int32
	// Query-level targets: Cost is the root's cumulative cost, Card the
	// output of the topmost non-aggregate node.
	Cost float64
	Card float64
	// CardNode indexes the node defining Card.
	CardNode int
}

// Encode converts an executed plan into tensors. The plan must carry
// TrueRows/TrueCost annotations if the sample will be used for training.
//
// It is EncodeAll of one plan into an arena of its own, sized exactly by a
// measuring pre-pass and never recycled, so the result lives as long as the
// caller keeps it.
func (e *Encoder) Encode(root *plan.Node) (*EncodedPlan, error) {
	var sz planSize
	sz.measure(e, root)
	var a Arena
	a.reserve(sz, root.Depth())
	eps, err := e.EncodeAll([]*plan.Node{root}, &a)
	if err != nil {
		return nil, err
	}
	return eps[0], nil
}

// EncodeAll encodes the plans of one request into the arena, which it resets
// first: the result, and everything it points to, is valid until the arena's
// next EncodeAll.
//
// A request's plans are encoded against one sub-plan ID → encoded-subtree
// table, the encoder's mirror of the paper's representation memory pool
// (Section 3): an optimizer pricing the candidates of one query sends the
// same scans and lower joins over and over, and a subtree whose ID already
// occurred — in an earlier plan or earlier in the same one — is a copy of the
// earlier EncodedNodes, not a second encoding. The copies alias the earlier
// feature vectors and predicate nodes (nothing downstream writes to them);
// child indices are shifted and the supervision targets taken from the plan's
// own nodes, so each returned plan equals, value for value, what Encode
// builds.
//
// The roots may share subtrees (the request decoder builds a repeated subtree
// once): a node is placed by where it is reached, never by its pointer.
func (e *Encoder) EncodeAll(roots []*plan.Node, a *Arena) ([]*EncodedPlan, error) {
	if a.seen == nil {
		a.seen = make(map[plan.ID]subtree)
	}
	a.reset()
	for _, root := range roots {
		a.ids = root.AppendIDs(a.ids[:0])
		ep := a.plans.One()
		ep.Nodes = a.nodes.Carve(len(a.ids))[:0]
		b := planBuilder{e: e, a: a, ep: ep, heights: a.ints.Carve(len(a.ids))}
		a.eps = append(a.eps, ep)
		a.heights = append(a.heights, b.heights)
		if _, err := b.encodeNode(root); err != nil {
			return nil, err
		}
		// The cardinality node ends the chain of Sort and Aggregate left
		// inputs below the root, and pre-order lists each left input right
		// after its parent: its index is its distance down that chain.
		card := root.CardinalityNode()
		for n := root; n != card; n = n.Left {
			ep.CardNode++
		}
		ep.Cost = root.TrueCost
		ep.Card = card.TrueRows
		a.buildLevels(ep, b.heights)
		a.Nodes += len(a.ids)
	}
	return a.eps, nil
}

// planSize is the storage one plan's encoding needs when nothing is shared,
// measured up front so Encode's arena never grows.
type planSize struct {
	nodes  int // plan nodes
	preds  int // predicate-tree nodes over all plan nodes
	floats int // feature-vector elements over all plan and predicate nodes
}

func (sz *planSize) measure(e *Encoder, n *plan.Node) {
	if n == nil {
		return
	}
	sz.nodes++
	sz.floats += e.OpDim() + e.MetaDim()
	k := predNodes(n)
	sz.preds += k
	sz.floats += k * e.AtomDim()
	if e.UseSampleBitmap && n.Type.IsScan() && k > 0 {
		sz.floats += e.BitmapDim()
	}
	sz.measure(e, n.Left)
	sz.measure(e, n.Right)
}

// predNodes counts the predicate-tree nodes a plan node encodes: a scan's
// filter with the index condition ANDed in front, or one pseudo-atom for a
// join condition.
func predNodes(n *plan.Node) int {
	switch {
	case n.Type.IsScan():
		k := countPredNodes(n.Filter)
		if n.IndexCond != nil {
			if k > 0 {
				k++ // the AND joining it to the filter
			}
			k++
		}
		return k
	case n.JoinCond != nil:
		return 1
	default:
		return 0
	}
}

func countPredNodes(p sqlpred.Pred) int {
	switch n := p.(type) {
	case *sqlpred.Bool:
		return 1 + countPredNodes(n.Left) + countPredNodes(n.Right)
	case nil:
		return 0
	default:
		return 1
	}
}

// planBuilder carries one plan's encoding through the recursion.
type planBuilder struct {
	e       *Encoder
	a       *Arena
	ep      *EncodedPlan
	heights []int32 // per node, height above the leaves
}

func (b *planBuilder) floats(n int) []float64 { return b.a.floats.Carve(n) }

func (b *planBuilder) encodeNode(n *plan.Node) (int, error) {
	e, ep := b.e, b.ep
	idx := len(ep.Nodes)
	if first, ok := b.a.seen[b.a.ids[idx]]; ok {
		b.share(n, first)
		return idx, nil
	}
	ep.Nodes = append(ep.Nodes, EncodedNode{})

	enc := EncodedNode{Left: -1, Right: -1, TrueRows: n.TrueRows, TrueCost: n.TrueCost, ID: b.a.ids[idx]}
	enc.Op = b.floats(e.OpDim())
	enc.Op[int(n.Type)] = 1
	enc.Meta = b.floats(e.MetaDim())
	e.encodeMeta(enc.Meta, n)

	if k := predNodes(n); k > 0 {
		enc.Pred.Nodes = b.a.preds.Carve(k)[:0]
		if n.Type.IsScan() {
			p := scanPredicate(n)
			if _, err := b.encodePredNode(p, &enc.Pred); err != nil {
				return 0, err
			}
			if e.UseSampleBitmap {
				enc.Bitmap = b.floats(e.BitmapDim())
				if err := e.Cat.SampleBitmap(enc.Bitmap, n.Table, p); err != nil {
					return 0, err
				}
			}
		} else {
			vec := b.floats(e.AtomDim())
			if err := e.encodeJoinVec(vec, n.JoinCond); err != nil {
				return 0, err
			}
			enc.Pred.Nodes = append(enc.Pred.Nodes, PredNode{IsLeaf: true, Vec: vec, Left: -1, Right: -1})
		}
	}

	height := int32(0)
	if n.Left != nil {
		l, err := b.encodeNode(n.Left)
		if err != nil {
			return 0, err
		}
		enc.Left = l
		height = b.heights[l] + 1
	}
	if n.Right != nil {
		r, err := b.encodeNode(n.Right)
		if err != nil {
			return 0, err
		}
		enc.Right = r
		height = max(height, b.heights[r]+1)
	}
	b.heights[idx] = height
	ep.Nodes[idx] = enc
	b.a.seen[enc.ID] = subtree{plan: int32(len(b.a.eps) - 1), at: int32(idx), nodes: int32(len(ep.Nodes) - idx)}
	return idx, nil
}

// share appends the subtree of n to the plan as a copy of its first encoding
// in this arena — the nodes, and the heights beside them — and has retarget
// stamp what is the plan's own.
//
// costlint:noalloc
func (b *planBuilder) share(n *plan.Node, first subtree) {
	idx := len(b.ep.Nodes)
	from, to := int(first.at), int(first.at+first.nodes)
	b.ep.Nodes = append(b.ep.Nodes, b.a.eps[first.plan].Nodes[from:to]...)
	copy(b.heights[idx:], b.a.heights[first.plan][from:to])
	b.a.Shared += to - from
	b.retarget(n, idx)
}

// retarget walks the subtree of n beside its copied encoding (both pre-order,
// starting at idx) and stamps what belongs to this plan rather than to the
// subtree's first occurrence: child indices and the executed plan's targets.
// It returns the index after the subtree.
//
// costlint:noalloc
func (b *planBuilder) retarget(n *plan.Node, idx int) int {
	node := &b.ep.Nodes[idx]
	node.TrueRows, node.TrueCost = n.TrueRows, n.TrueCost
	next := idx + 1
	if n.Left != nil {
		node.Left = next
		next = b.retarget(n.Left, next)
	}
	if n.Right != nil {
		node.Right = next
		next = b.retarget(n.Right, next)
	}
	return next
}

// encodeMeta ORs into v the one-hot vectors of every column, table and index
// the node touches: [columns | tables | indexes].
func (e *Encoder) encodeMeta(v []float64, n *plan.Node) {
	s := e.Cat.DB.Schema
	if n.Table != "" {
		e.setTable(v, n.Table)
	}
	if n.Index != "" {
		if id := s.IndexID(n.Index); id >= 0 {
			v[s.NumColumns()+s.NumTables()+id] = 1
		}
	}
	e.setPredColumns(v, n.Filter)
	if n.IndexCond != nil {
		e.setColumn(v, n.IndexCond.Table, n.IndexCond.Column)
	}
	e.setJoin(v, n.JoinCond)
	e.setJoin(v, n.ParamJoin)
	for _, k := range n.SortKeys {
		e.setColumn(v, k.Table, k.Column)
		e.setTable(v, k.Table)
	}
	for _, a := range n.Aggs {
		if a.Col.Table != "" {
			e.setColumn(v, a.Col.Table, a.Col.Column)
			e.setTable(v, a.Col.Table)
		}
	}
}

func (e *Encoder) setColumn(v []float64, table, column string) {
	if id := e.Cat.DB.Schema.ColumnID(table, column); id >= 0 {
		v[id] = 1
	}
}

func (e *Encoder) setTable(v []float64, table string) {
	s := e.Cat.DB.Schema
	if id := s.TableID(table); id >= 0 {
		v[s.NumColumns()+id] = 1
	}
}

func (e *Encoder) setJoin(v []float64, jc *plan.JoinCond) {
	if jc == nil {
		return
	}
	e.setColumn(v, jc.Left.Table, jc.Left.Column)
	e.setColumn(v, jc.Right.Table, jc.Right.Column)
	e.setTable(v, jc.Left.Table)
	e.setTable(v, jc.Right.Table)
}

func (e *Encoder) setPredColumns(v []float64, p sqlpred.Pred) {
	switch n := p.(type) {
	case *sqlpred.Atom:
		e.setColumn(v, n.Table, n.Column)
	case *sqlpred.Bool:
		e.setPredColumns(v, n.Left)
		e.setPredColumns(v, n.Right)
	}
}

// scanPredicate is the predicate material at a scan: its filter with the
// index condition folded in.
func scanPredicate(n *plan.Node) sqlpred.Pred {
	p := n.Filter
	if n.IndexCond != nil {
		p = sqlpred.AndAll(n.IndexCond, p)
	}
	return p
}

// encodePredNode appends the subtree of p to ep.Nodes in DFS preorder; the
// caller sized ep.Nodes' capacity, so the appends never reallocate.
func (b *planBuilder) encodePredNode(p sqlpred.Pred, ep *EncodedPred) (int, error) {
	idx := len(ep.Nodes)
	ep.Nodes = append(ep.Nodes, PredNode{})
	switch n := p.(type) {
	case *sqlpred.Atom:
		vec := b.floats(b.e.AtomDim())
		if err := b.e.encodeAtomVec(vec, n); err != nil {
			return 0, err
		}
		ep.Nodes[idx] = PredNode{IsLeaf: true, Vec: vec, Left: -1, Right: -1}
	case *sqlpred.Bool:
		vec := b.floats(b.e.AtomDim())
		if n.Kind == sqlpred.And {
			vec[0] = 1
		} else {
			vec[1] = 1
		}
		l, err := b.encodePredNode(n.Left, ep)
		if err != nil {
			return 0, err
		}
		r, err := b.encodePredNode(n.Right, ep)
		if err != nil {
			return 0, err
		}
		ep.Nodes[idx] = PredNode{Bool: n.Kind, Vec: vec, Left: l, Right: r}
	default:
		return 0, fmt.Errorf("feature: unknown predicate node %T", p)
	}
	return idx, nil
}

// Atom vector layout:
// [isAnd=0, isOr=0 | column one-hot | op one-hot | numeric | string embed].
const atomColBase = 2

// encodeAtomVec lays one atom out in v (zeroed, AtomDim long).
func (e *Encoder) encodeAtomVec(v []float64, a *sqlpred.Atom) error {
	s := e.Cat.DB.Schema
	opBase := atomColBase + s.NumColumns()
	numBase := opBase + int(sqlpred.NumOps)
	strBase := numBase + 1

	id := s.ColumnID(a.Table, a.Column)
	if id < 0 {
		return fmt.Errorf("feature: unknown column %s.%s", a.Table, a.Column)
	}
	v[atomColBase+id] = 1
	v[opBase+int(a.Op)] = 1

	switch {
	case a.Op == sqlpred.OpIn:
		// The operand of IN is the mean of its values' embeddings.
		str := v[strBase:]
		for _, val := range a.InVals {
			for i, x := range e.Str.Embed(val) {
				str[i] += x
			}
		}
		if len(a.InVals) > 0 {
			for i := range str {
				str[i] /= float64(len(a.InVals))
			}
		}
	case a.IsStr:
		copy(v[strBase:], e.Str.Embed(a.StrVal))
	default:
		v[numBase] = e.Cat.NormalizeNumeric(a.Table, a.Column, a.NumVal)
	}
	return nil
}

// encodeJoinVec lays an equi-join condition out in v as a pseudo-atom: both
// columns set in the column one-hot, operator =, no operand.
func (e *Encoder) encodeJoinVec(v []float64, jc *plan.JoinCond) error {
	s := e.Cat.DB.Schema
	id := s.ColumnID(jc.Left.Table, jc.Left.Column)
	if id < 0 {
		return fmt.Errorf("feature: unknown column %s.%s", jc.Left.Table, jc.Left.Column)
	}
	v[atomColBase+id] = 1
	if id := s.ColumnID(jc.Right.Table, jc.Right.Column); id >= 0 {
		v[atomColBase+id] = 1
	}
	v[atomColBase+s.NumColumns()+int(sqlpred.OpEq)] = 1
	return nil
}

// Depth returns the number of levels.
func (ep *EncodedPlan) Depth() int { return len(ep.Levels) }
