// Package plan defines the physical query-plan algebra the estimators
// operate on: scans, joins, sorts and aggregates arranged in a binary tree,
// mirroring the plan operations the paper extracts from PostgreSQL (Table 1).
package plan

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strings"

	"costest/internal/sqlpred"
)

// NodeType is a physical operator.
type NodeType int

// Physical operators (the paper's operation one-hot vocabulary).
const (
	SeqScan NodeType = iota
	IndexScan
	HashJoin
	MergeJoin
	NestedLoop
	Sort
	Aggregate
	NumNodeTypes // size of the operation one-hot space
)

var nodeTypeNames = [...]string{
	"Seq Scan", "Index Scan", "Hash Join", "Merge Join", "Nested Loop", "Sort", "Aggregate",
}

func (t NodeType) String() string {
	if int(t) < len(nodeTypeNames) {
		return nodeTypeNames[t]
	}
	return fmt.Sprintf("NodeType(%d)", int(t))
}

// IsJoin reports whether the operator combines two inputs.
func (t NodeType) IsJoin() bool {
	return t == HashJoin || t == MergeJoin || t == NestedLoop
}

// IsScan reports whether the operator reads a base table.
func (t NodeType) IsScan() bool { return t == SeqScan || t == IndexScan }

// ColRef names a column of a table.
type ColRef struct {
	Table, Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// JoinCond is an equi-join condition left = right.
type JoinCond struct {
	Left, Right ColRef
}

func (j JoinCond) String() string { return j.Left.String() + " = " + j.Right.String() }

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions used by the paper's generated projections
// (Section 4.3: MIN, MAX, COUNT).
const (
	AggMin AggFunc = iota
	AggMax
	AggCount
)

func (f AggFunc) String() string {
	switch f {
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "COUNT"
	}
}

// AggSpec is one output aggregate.
type AggSpec struct {
	Func AggFunc
	Col  ColRef // ignored for COUNT(*)
}

// Node is a physical plan node. Scans populate Table/Index/Filter; joins
// populate JoinCond; Sort populates SortKeys; Aggregate populates Aggs.
// Estimation annotations (Est*) are written by estimators and ground-truth
// annotations (True*) by the executor.
type Node struct {
	Type NodeType

	// Scan fields.
	Table  string
	Index  string       // index name for IndexScan
	Filter sqlpred.Pred // residual single-table filter evaluated at this node

	// IndexScan range/equality condition on the indexed column, when the
	// scan is driven by a filter. For the inner side of an index nested
	// loop the condition instead comes from the outer tuple at runtime
	// (ParamJoin is set on the scan).
	IndexCond *sqlpred.Atom
	ParamJoin *JoinCond // inner index scan parameterized by outer join key

	// Join fields.
	JoinCond *JoinCond

	// Sort fields.
	SortKeys []ColRef

	// Aggregate fields.
	Aggs []AggSpec

	Left, Right *Node

	// Estimates (filled by the estimator under evaluation).
	EstRows float64
	EstCost float64
	// Ground truth (filled by the executor).
	TrueRows float64
	TrueCost float64
}

// Tables returns the base tables covered by the subtree, in DFS order.
func (n *Node) Tables() []string {
	var out []string
	n.Walk(func(m *Node) {
		if m.Type.IsScan() {
			out = append(out, m.Table)
		}
	})
	return out
}

// Walk visits the subtree pre-order.
func (n *Node) Walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	n.Left.Walk(f)
	n.Right.Walk(f)
}

// Count returns the number of nodes in the subtree.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// Depth returns the height of the subtree (leaf = 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// ID identifies a subtree by its content: two subtrees have one ID exactly
// when they are equal in every field but the Est* and True* annotations, up
// to the collision bound ARCHITECTURE.md states. The Representation Memory
// Pool (Section 3) keys on it. IDs are keyed by seeds drawn at process start:
// one means nothing outside the process that computed it, and none is ever
// sent out of one.
type ID [2]uint64

var idSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// Signature returns a non-nil plan's ID as 32 hex digits, comparable only
// within one process.
func (n *Node) Signature() string {
	id := n.AppendIDs(nil)[0]
	return fmt.Sprintf("%016x%016x", id[0], id[1])
}

// AppendIDs appends the ID of every subtree of n to dst in pre-order (the
// order Walk visits nodes), so the first one appended is n's own. One pass
// computes them bottom-up: a node's ID is a hash pair over its own fields and
// its children's IDs. Only a node whose own fields outgrow the 512-byte
// scratch (a long IN list) makes the pass allocate.
//
// costlint:noalloc
func (n *Node) AppendIDs(dst []ID) []ID {
	if n == nil {
		return dst
	}
	var scratch [512]byte
	dst, _ = n.appendIDs(dst, scratch[:0])
	return dst
}

// appendIDs threads the scratch through the pass; it holds one node's form at
// a time.
//
// costlint:noalloc
func (n *Node) appendIDs(dst []ID, form []byte) ([]ID, []byte) {
	at := len(dst)
	dst = append(dst, ID{})
	var kids [2]ID // the zero ID marks an absent child
	for i, c := range [2]*Node{n.Left, n.Right} {
		if c != nil {
			j := len(dst)
			dst, form = c.appendIDs(dst, form)
			kids[i] = dst[j]
		}
	}
	form = n.appendForm(form[:0])
	for _, k := range kids {
		form = binary.LittleEndian.AppendUint64(form, k[0])
		form = binary.LittleEndian.AppendUint64(form, k[1])
	}
	dst[at] = ID{maphash.Bytes(idSeeds[0], form), maphash.Bytes(idSeeds[1], form)}
	return dst, form
}

// appendForm appends the node's own fields, every one the ID covers, in a
// binary form that reads back unambiguously: each string carries its length,
// each optional part a tag, each list its count, each float its bits. Two
// nodes write one form only if those fields are equal.
//
// costlint:noalloc
func (n *Node) appendForm(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(n.Type))
	b = appendStrs(b, n.Table, n.Index)
	b = appendPred(b, n.Filter)
	b = appendPred(b, n.IndexCond)
	for _, j := range [2]*JoinCond{n.ParamJoin, n.JoinCond} {
		if j == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = appendStrs(b, j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(n.SortKeys)))
	for _, k := range n.SortKeys {
		b = appendStrs(b, k.Table, k.Column)
	}
	b = binary.AppendUvarint(b, uint64(len(n.Aggs)))
	for _, a := range n.Aggs {
		b = binary.AppendUvarint(b, uint64(a.Func))
		b = appendStrs(b, a.Col.Table, a.Col.Column)
	}
	return b
}

// appendPred appends a predicate tree in pre-order behind tags: 0 absent,
// 1 numeric atom, 2 string atom, 3 connective.
//
// costlint:noalloc
func appendPred(b []byte, p sqlpred.Pred) []byte {
	switch p := p.(type) {
	case *sqlpred.Atom:
		if p != nil {
			tag := byte(1)
			if p.IsStr {
				tag = 2
			}
			b = append(b, tag)
			b = appendStrs(b, p.Table, p.Column)
			b = binary.AppendUvarint(b, uint64(p.Op))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.NumVal))
			b = appendStrs(b, p.StrVal)
			b = binary.AppendUvarint(b, uint64(len(p.InVals)))
			return appendStrs(b, p.InVals...)
		}
	case *sqlpred.Bool:
		if p != nil {
			b = append(b, 3)
			b = binary.AppendUvarint(b, uint64(p.Kind))
			return appendPred(appendPred(b, p.Left), p.Right)
		}
	}
	b = append(b, 0)
	return b
}

// costlint:noalloc
func appendStrs(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// String renders the plan as an indented EXPLAIN-style tree.
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *Node) format(b *strings.Builder, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Type.String())
	if n.Table != "" {
		fmt.Fprintf(b, " on %s", n.Table)
	}
	if n.Index != "" {
		fmt.Fprintf(b, " using %s", n.Index)
	}
	if n.JoinCond != nil {
		fmt.Fprintf(b, " (%s)", n.JoinCond)
	}
	if n.ParamJoin != nil {
		fmt.Fprintf(b, " [param %s]", n.ParamJoin)
	}
	if n.IndexCond != nil {
		fmt.Fprintf(b, " [cond %s]", n.IndexCond)
	}
	if n.Filter != nil {
		fmt.Fprintf(b, " filter: %s", n.Filter)
	}
	if n.TrueRows > 0 || n.EstRows > 0 {
		fmt.Fprintf(b, "  (est=%.0f real=%.0f)", n.EstRows, n.TrueRows)
	}
	b.WriteByte('\n')
	n.Left.format(b, depth+1)
	n.Right.format(b, depth+1)
}

// Clone deep-copies the plan tree (annotations included; predicates shared,
// as they are immutable).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Left = n.Left.Clone()
	c.Right = n.Right.Clone()
	return &c
}

// CardinalityNode returns the node whose output cardinality defines "the
// query's cardinality": the topmost non-aggregate, non-sort node. Aggregates
// always output one row, so query-level cardinality metrics (and the paper's
// card targets) are taken below them.
func (n *Node) CardinalityNode() *Node {
	cur := n
	for cur != nil && (cur.Type == Aggregate || cur.Type == Sort) {
		cur = cur.Left
	}
	if cur == nil {
		return n
	}
	return cur
}
