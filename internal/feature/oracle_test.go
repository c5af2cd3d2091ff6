package feature

import (
	"fmt"
	"strings"

	"costest/internal/plan"
	"costest/internal/schema"
	"costest/internal/sqlpred"
)

// The encoder as it was before Encode became a single sized pass: one
// Signature() re-walk per node through fmt, one allocation per vector, a
// pseudo-atom for join conditions. Kept verbatim (renamed old*, its node keys
// now the subtree's ID) as the oracle the property test compares the live
// encoder against — every feature vector must not change. oldSignature, the
// text key, stays as the partition the ID must reproduce on escape-free
// names (TestIDPartitionMatchesOldSignature).

func oldEncode(e *Encoder, root *plan.Node) (*EncodedPlan, error) {
	ep := &EncodedPlan{Root: 0}
	cardNode := root.CardinalityNode()
	if _, err := oldEncodeNode(e, root, ep, cardNode); err != nil {
		return nil, err
	}
	ep.Cost = root.TrueCost
	ep.Card = cardNode.TrueRows
	oldBuildLevels(ep)
	return ep, nil
}

func oldEncodeNode(e *Encoder, n *plan.Node, ep *EncodedPlan, cardNode *plan.Node) (int, error) {
	idx := len(ep.Nodes)
	ep.Nodes = append(ep.Nodes, EncodedNode{Left: -1, Right: -1})
	if n == cardNode {
		ep.CardNode = idx
	}

	enc := EncodedNode{Left: -1, Right: -1, TrueRows: n.TrueRows, TrueCost: n.TrueCost,
		ID: n.AppendIDs(nil)[0]}
	enc.Op = make([]float64, e.OpDim())
	enc.Op[int(n.Type)] = 1
	enc.Meta = oldEncodeMeta(e, n)
	pred, err := oldEncodePred(e, oldNodePredicate(n))
	if err != nil {
		return 0, err
	}
	enc.Pred = pred
	if e.UseSampleBitmap && n.Type.IsScan() {
		if p := oldScanPredicate(n); p != nil {
			bm := make([]float64, e.Cat.SampleSize)
			if ts := e.Cat.Table(n.Table); ts != nil {
				match, err := sqlpred.Compile(p, n.Table, e.Cat.DB.Table(n.Table))
				if err != nil {
					return 0, err
				}
				for i, row := range ts.Sample[:min(len(bm), len(ts.Sample))] {
					if match(row) {
						bm[i] = 1
					}
				}
			}
			enc.Bitmap = bm
		}
	}

	if n.Left != nil {
		l, err := oldEncodeNode(e, n.Left, ep, cardNode)
		if err != nil {
			return 0, err
		}
		enc.Left = l
	}
	if n.Right != nil {
		r, err := oldEncodeNode(e, n.Right, ep, cardNode)
		if err != nil {
			return 0, err
		}
		enc.Right = r
	}
	ep.Nodes[idx] = enc
	return idx, nil
}

func oldEncodeMeta(e *Encoder, n *plan.Node) []float64 {
	s := e.Cat.DB.Schema
	v := make([]float64, e.MetaDim())
	setCol := func(table, col string) {
		if id := s.ColumnID(table, col); id >= 0 {
			v[id] = 1
		}
	}
	setTable := func(t string) {
		if id := s.TableID(t); id >= 0 {
			v[s.NumColumns()+id] = 1
		}
	}
	setIndex := func(name string) {
		if id := int(schema.Lookup(s, name).Index) - 1; id >= 0 {
			v[s.NumColumns()+s.NumTables()+id] = 1
		}
	}
	if n.Table != "" {
		setTable(n.Table)
	}
	if n.Index != "" {
		setIndex(n.Index)
	}
	sqlpred.Walk(n.Filter, func(a *sqlpred.Atom) { setCol(a.Table, a.Column) })
	if n.IndexCond != nil {
		setCol(n.IndexCond.Table, n.IndexCond.Column)
	}
	for _, jc := range []*plan.JoinCond{n.JoinCond, n.ParamJoin} {
		if jc != nil {
			setCol(jc.Left.Table, jc.Left.Column)
			setCol(jc.Right.Table, jc.Right.Column)
			setTable(jc.Left.Table)
			setTable(jc.Right.Table)
		}
	}
	for _, k := range n.SortKeys {
		setCol(k.Table, k.Column)
		setTable(k.Table)
	}
	for _, a := range n.Aggs {
		if a.Col.Table != "" {
			setCol(a.Col.Table, a.Col.Column)
			setTable(a.Col.Table)
		}
	}
	return v
}

func oldNodePredicate(n *plan.Node) sqlpred.Pred {
	switch {
	case n.Type.IsScan():
		return oldScanPredicate(n)
	case n.JoinCond != nil:
		return &sqlpred.Atom{
			Table:  n.JoinCond.Left.Table,
			Column: n.JoinCond.Left.Column,
			Op:     sqlpred.OpEq,
			StrVal: oldJoinRightMarker + n.JoinCond.Right.Table + "." + n.JoinCond.Right.Column,
		}
	default:
		return nil
	}
}

func oldScanPredicate(n *plan.Node) sqlpred.Pred {
	p := n.Filter
	if n.IndexCond != nil {
		p = sqlpred.AndAll(n.IndexCond, p)
	}
	return p
}

const oldJoinRightMarker = "\x00join:"

func oldEncodePred(e *Encoder, p sqlpred.Pred) (EncodedPred, error) {
	var ep EncodedPred
	if p == nil {
		return ep, nil
	}
	if _, err := oldEncodePredNode(e, p, &ep); err != nil {
		return EncodedPred{}, err
	}
	return ep, nil
}

func oldEncodePredNode(e *Encoder, p sqlpred.Pred, ep *EncodedPred) (int, error) {
	idx := len(ep.Nodes)
	ep.Nodes = append(ep.Nodes, PredNode{Left: -1, Right: -1})
	switch n := p.(type) {
	case *sqlpred.Atom:
		vec, err := oldEncodeAtomVec(e, n)
		if err != nil {
			return 0, err
		}
		ep.Nodes[idx] = PredNode{IsLeaf: true, Vec: vec, Left: -1, Right: -1}
	case *sqlpred.Bool:
		l, err := oldEncodePredNode(e, n.Left, ep)
		if err != nil {
			return 0, err
		}
		r, err := oldEncodePredNode(e, n.Right, ep)
		if err != nil {
			return 0, err
		}
		vec := make([]float64, e.AtomDim())
		if n.Kind == sqlpred.And {
			vec[0] = 1
		} else {
			vec[1] = 1
		}
		ep.Nodes[idx] = PredNode{Bool: n.Kind, Vec: vec, Left: l, Right: r}
	default:
		return 0, fmt.Errorf("feature: unknown predicate node %T", p)
	}
	return idx, nil
}

func oldEncodeAtomVec(e *Encoder, a *sqlpred.Atom) ([]float64, error) {
	s := e.Cat.DB.Schema
	v := make([]float64, e.AtomDim())
	colBase := 2
	opBase := colBase + s.NumColumns()
	numBase := opBase + int(sqlpred.NumOps)
	strBase := numBase + 1

	if id := s.ColumnID(a.Table, a.Column); id >= 0 {
		v[colBase+id] = 1
	} else {
		return nil, fmt.Errorf("feature: unknown column %s.%s", a.Table, a.Column)
	}
	v[opBase+int(a.Op)] = 1

	if len(a.StrVal) > len(oldJoinRightMarker) && a.StrVal[:len(oldJoinRightMarker)] == oldJoinRightMarker {
		ref := a.StrVal[len(oldJoinRightMarker):]
		for i := 0; i < len(ref); i++ {
			if ref[i] == '.' {
				if id := s.ColumnID(ref[:i], ref[i+1:]); id >= 0 {
					v[colBase+id] = 1
				}
				break
			}
		}
		return v, nil
	}

	switch {
	case a.Op == sqlpred.OpIn:
		out := make([]float64, e.Str.Dim())
		for _, val := range a.InVals {
			vec := e.Str.Embed(val)
			for i := range out {
				out[i] += vec[i]
			}
		}
		if len(a.InVals) > 0 {
			for i := range out {
				out[i] /= float64(len(a.InVals))
			}
		}
		copy(v[strBase:], out)
	case a.IsStr:
		copy(v[strBase:], e.Str.Embed(a.StrVal))
	default:
		v[numBase] = e.Cat.NormalizeNumeric(e.Cat.DB.Schema.ColumnID(a.Table, a.Column), a.NumVal)
	}
	return v, nil
}

func oldBuildLevels(ep *EncodedPlan) {
	heights := make([]int, len(ep.Nodes))
	var height func(i int) int
	height = func(i int) int {
		if i < 0 {
			return -1
		}
		if heights[i] > 0 {
			return heights[i]
		}
		h := 0
		n := ep.Nodes[i]
		if l := height(n.Left); l+1 > h {
			h = l + 1
		}
		if r := height(n.Right); r+1 > h {
			h = r + 1
		}
		heights[i] = h
		return h
	}
	maxH := 0
	for i := range ep.Nodes {
		if h := height(i); h > maxH {
			maxH = h
		}
	}
	ep.Levels = make([][]int32, maxH+1)
	for i := range ep.Nodes {
		h := heights[i]
		ep.Levels[h] = append(ep.Levels[h], int32(i))
	}
}

// oldSignature is the text signature sub-plans were keyed by before plan.ID:
// a fresh fmt-based walk of the whole subtree per call.
func oldSignature(n *plan.Node) string {
	var b strings.Builder
	oldWriteSignature(n, &b)
	return b.String()
}

func oldWriteSignature(n *plan.Node, b *strings.Builder) {
	if n == nil {
		b.WriteByte('_')
		return
	}
	fmt.Fprintf(b, "%d[", int(n.Type))
	if n.Table != "" {
		b.WriteString(n.Table)
	}
	if n.Index != "" {
		b.WriteByte('/')
		b.WriteString(n.Index)
	}
	if n.Filter != nil {
		b.WriteByte('|')
		b.WriteString(oldPredString(n.Filter))
	}
	if n.IndexCond != nil {
		b.WriteByte('@')
		b.WriteString(oldPredString(n.IndexCond))
	}
	if n.ParamJoin != nil {
		b.WriteByte('#')
		b.WriteString(n.ParamJoin.String())
	}
	if n.JoinCond != nil {
		b.WriteString(n.JoinCond.String())
	}
	for _, k := range n.SortKeys {
		b.WriteString(k.String())
		b.WriteByte(',')
	}
	for _, a := range n.Aggs {
		b.WriteString(a.Func.String())
		b.WriteString(a.Col.String())
		b.WriteByte(',')
	}
	b.WriteByte(']')
	if n.Left != nil || n.Right != nil {
		b.WriteByte('(')
		oldWriteSignature(n.Left, b)
		b.WriteByte(',')
		oldWriteSignature(n.Right, b)
		b.WriteByte(')')
	}
}

// oldPredString is sqlpred's Atom.String / Bool.String as they were.
func oldPredString(p sqlpred.Pred) string {
	switch n := p.(type) {
	case *sqlpred.Atom:
		switch {
		case n.Op == sqlpred.OpIn:
			return fmt.Sprintf("%s.%s IN (%s)", n.Table, n.Column, strings.Join(n.InVals, ", "))
		case n.IsStr:
			return fmt.Sprintf("%s.%s %s '%s'", n.Table, n.Column, n.Op, n.StrVal)
		default:
			return fmt.Sprintf("%s.%s %s %g", n.Table, n.Column, n.Op, n.NumVal)
		}
	case *sqlpred.Bool:
		return fmt.Sprintf("(%s %s %s)", oldPredString(n.Left), n.Kind, oldPredString(n.Right))
	default:
		return fmt.Sprintf("%s", p)
	}
}
