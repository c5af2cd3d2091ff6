// Package feature extracts and encodes plan-node features the way
// Section 4.1 of the paper prescribes: physical operation one-hot vectors,
// metadata bitmaps over columns/tables/indexes, predicate trees encoded
// atom-by-atom as ⟨column, operator, operand⟩ vectors (numeric operands
// normalized, string operands embedded), and per-table sample bitmaps. It
// also lays plans out in the level-order form used for batch training
// (Section 4.3).
package feature

import (
	"cmp"
	"fmt"

	"costest/internal/plan"
	"costest/internal/schema"
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
// It is Resolve, then EncodeAll of one plan into an arena of its own, sized
// exactly by a measuring pre-pass and never recycled, so the result lives as
// long as the caller keeps it.
func (e *Encoder) Encode(root *plan.Node) (*EncodedPlan, error) {
	if err := e.Resolve(root); err != nil {
		return nil, err
	}
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
// next EncodeAll. It reads tables, columns and indexes by their ids alone, so
// the plans must be resolved — built by the request decoder, or passed
// through Resolve — and a name without its id is an error.
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
	if err := e.encodeMeta(enc.Meta, n); err != nil {
		return 0, err
	}

	if k := predNodes(n); k > 0 {
		enc.Pred.Nodes = b.a.preds.Carve(k)[:0]
		if n.Type.IsScan() {
			p := scanPredicate(n)
			if _, err := b.encodePredNode(p, &enc.Pred); err != nil {
				return 0, err
			}
			if e.UseSampleBitmap {
				if n.TableID == 0 {
					return 0, fmt.Errorf("feature: %s without a table", n.Type)
				}
				enc.Bitmap = b.floats(e.BitmapDim())
				e.Cat.SampleBitmap(enc.Bitmap, int(n.TableID)-1, p)
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
func (e *Encoder) encodeMeta(v []float64, n *plan.Node) (err error) {
	s := e.Cat.DB.Schema
	tables, indexes := s.NumColumns(), s.NumColumns()+s.NumTables()
	// set ORs in the bit of one name: none for no name, an error for a name
	// without its id.
	set := func(at int, name string, id int32) {
		switch {
		case id > 0:
			v[at+int(id)-1] = 1
		case name != "" && err == nil:
			err = fmt.Errorf("feature: %q is not resolved", name)
		}
	}
	// col sets a column reference's column and table.
	col := func(c plan.ColRef) {
		switch {
		case c.ColumnID > 0:
			v[c.ColumnID-1] = 1
			v[tables+s.ColumnTable(int(c.ColumnID)-1)] = 1
		case c != plan.ColRef{} && err == nil:
			err = fmt.Errorf("feature: column %s is not resolved", c)
		}
	}
	set(tables, n.Table, n.TableID)
	set(indexes, n.Index, n.IndexID)
	sqlpred.Walk(n.Filter, func(a *sqlpred.Atom) { set(0, a.Column, a.ColumnID) })
	if n.IndexCond != nil {
		set(0, n.IndexCond.Column, n.IndexCond.ColumnID)
	}
	for _, j := range [2]*plan.JoinCond{n.JoinCond, n.ParamJoin} {
		if j != nil {
			col(j.Left)
			col(j.Right)
		}
	}
	for _, k := range n.SortKeys {
		col(k)
	}
	for _, a := range n.Aggs {
		col(a.Col)
	}
	return err
}

// Resolve sets the ids of every table, column and index name in the tree
// from the schema's name table (schema.Lookup), as the request decoder does
// while it reads a body, and applies CheckScan: a tree built from names alone
// — by the planner, WirePlan.Decode or a test — encodes once resolved. It
// writes into the tree. A sort key or aggregate column that names nothing may
// stay absent; every other name must resolve.
func (e *Encoder) Resolve(n *plan.Node) error {
	if n == nil {
		return nil
	}
	s := e.Cat.DB.Schema
	n.TableID, n.IndexID = schema.Lookup(s, n.Table).Table, schema.Lookup(s, n.Index).Index
	unknown := (n.TableID == 0) != (n.Table == "") || (n.IndexID == 0) != (n.Index == "")
	column := func(table, column string, id *int32, optional bool) {
		*id = s.ColumnIn(schema.Lookup(s, table).Table, schema.Lookup(s, column))
		unknown = unknown || *id == 0 && !(optional && table == "" && column == "")
	}
	sqlpred.Walk(n.Filter, func(a *sqlpred.Atom) { column(a.Table, a.Column, &a.ColumnID, false) })
	if a := n.IndexCond; a != nil {
		column(a.Table, a.Column, &a.ColumnID, false)
	}
	for _, j := range [2]*plan.JoinCond{n.JoinCond, n.ParamJoin} {
		if j != nil {
			column(j.Left.Table, j.Left.Column, &j.Left.ColumnID, false)
			column(j.Right.Table, j.Right.Column, &j.Right.ColumnID, false)
		}
	}
	for i := range n.SortKeys {
		k := &n.SortKeys[i]
		column(k.Table, k.Column, &k.ColumnID, true)
	}
	for i := range n.Aggs {
		c := &n.Aggs[i].Col
		column(c.Table, c.Column, &c.ColumnID, true)
	}
	if unknown {
		return fmt.Errorf("feature: a %s node (table %q) names a table, column or index the schema lacks", n.Type, n.Table)
	}
	return cmp.Or(CheckScan(s, n), e.Resolve(n.Left), e.Resolve(n.Right))
}

// CheckScan applies CheckAtom to every atom of a resolved scan's filter and
// index condition. Resolve and the request decoder apply it to every node
// they resolve.
func CheckScan(s *schema.Schema, n *plan.Node) (err error) {
	check := func(a *sqlpred.Atom) { err = cmp.Or(err, CheckAtom(s, int(n.TableID)-1, a)) }
	if n.Type.IsScan() {
		sqlpred.Walk(n.Filter, check)
		if n.IndexCond != nil {
			check(n.IndexCond)
		}
	}
	return err
}

// CheckAtom applies to one resolved atom of a filter on the table with the
// given schema id the two rules the sample bitmap relies on beyond the ids:
// the atom is on that table, and has a string operand (IN's included)
// exactly when its column holds strings.
func CheckAtom(s *schema.Schema, table int, a *sqlpred.Atom) error {
	id := int(a.ColumnID) - 1
	switch {
	case id < 0 || s.ColumnTable(id) != table:
		return fmt.Errorf("feature: atom on %s.%s is not on its scan's table", a.Table, a.Column)
	case a.IsStr != (s.ColumnByID(id).Type == schema.StringCol):
		return fmt.Errorf("feature: operand of %s does not match the type of %s.%s", a.Op, a.Table, a.Column)
	}
	return nil
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

	if a.ColumnID == 0 {
		return fmt.Errorf("feature: column %s.%s is not resolved", a.Table, a.Column)
	}
	v[atomColBase+int(a.ColumnID)-1] = 1
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
		v[numBase] = e.Cat.NormalizeNumeric(int(a.ColumnID)-1, a.NumVal)
	}
	return nil
}

// encodeJoinVec lays an equi-join condition out in v as a pseudo-atom: both
// columns set in the column one-hot, operator =, no operand.
func (e *Encoder) encodeJoinVec(v []float64, jc *plan.JoinCond) error {
	for _, c := range [2]plan.ColRef{jc.Left, jc.Right} {
		if c.ColumnID == 0 {
			return fmt.Errorf("feature: join column %s is not resolved", c)
		}
		v[atomColBase+int(c.ColumnID)-1] = 1
	}
	v[atomColBase+e.Cat.DB.Schema.NumColumns()+int(sqlpred.OpEq)] = 1
	return nil
}

// Depth returns the number of levels.
func (ep *EncodedPlan) Depth() int { return len(ep.Levels) }
