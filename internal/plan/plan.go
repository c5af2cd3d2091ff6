// Package plan defines the physical query-plan algebra the estimators
// operate on: scans, joins, sorts and aggregates arranged in a binary tree,
// mirroring the plan operations the paper extracts from PostgreSQL (Table 1).
package plan

import (
	"fmt"
	"strconv"
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

func (c ColRef) appendString(dst []byte) []byte {
	dst = append(dst, c.Table...)
	dst = append(dst, '.')
	return append(dst, c.Column...)
}

// JoinCond is an equi-join condition left = right.
type JoinCond struct {
	Left, Right ColRef
}

func (j JoinCond) String() string { return j.Left.String() + " = " + j.Right.String() }

func (j JoinCond) appendString(dst []byte) []byte {
	dst = j.Left.appendString(dst)
	dst = append(dst, " = "...)
	return j.Right.appendString(dst)
}

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

// Signature returns a canonical string identifying the logical content of
// the subtree; the Representation Memory Pool (Section 3) keys on it.
func (n *Node) Signature() string {
	if n == nil {
		return "_"
	}
	return n.SubtreeSignatures()[0]
}

// SubtreeSignatures returns the Signature of every subtree of n, indexed in
// pre-order (the order Walk visits nodes), so out[0] is n.Signature(). A
// subtree's signature is a substring of its parent's: one pass over the plan
// writes the root's, and every other entry is a slice of that one string.
func (n *Node) SubtreeSignatures() []string {
	count := n.Count()
	var sc SigScratch
	sc.Reserve(count)
	return n.AppendSubtreeSignatures(make([]string, 0, count), &sc)
}

// SigScratch is the working storage of AppendSubtreeSignatures, reusable
// across calls. The zero value is ready to use.
type SigScratch struct {
	buf   []byte
	spans []sigSpan
}

// Reserve sizes the scratch for a plan of the given node count, for a caller
// that will not reuse it.
func (sc *SigScratch) Reserve(nodes int) {
	// 48 bytes a node covers most workload plans without regrowing.
	sc.buf, sc.spans = make([]byte, 0, 48*nodes), make([]sigSpan, 0, nodes)
}

// AppendSubtreeSignatures appends SubtreeSignatures() to dst. With a reused
// scratch and a dst of sufficient capacity its only allocation is the root's
// signature string.
func (n *Node) AppendSubtreeSignatures(dst []string, sc *SigScratch) []string {
	sc.spans = sc.spans[:0]
	sc.buf = n.appendSignature(sc.buf[:0], &sc.spans)
	root := string(sc.buf)
	for _, sp := range sc.spans {
		dst = append(dst, root[sp.start:sp.end])
	}
	return dst
}

// sigSpan locates one subtree's signature inside the root's.
type sigSpan struct{ start, end int }

func (n *Node) appendSignature(dst []byte, spans *[]sigSpan) []byte {
	if n == nil {
		return append(dst, '_')
	}
	idx := len(*spans)
	*spans = append(*spans, sigSpan{start: len(dst)})
	dst = strconv.AppendInt(dst, int64(n.Type), 10)
	dst = append(dst, '[')
	dst = append(dst, n.Table...)
	if n.Index != "" {
		dst = append(dst, '/')
		dst = append(dst, n.Index...)
	}
	if n.Filter != nil {
		dst = append(dst, '|')
		dst = sqlpred.AppendString(dst, n.Filter)
	}
	if n.IndexCond != nil {
		dst = append(dst, '@')
		dst = sqlpred.AppendString(dst, n.IndexCond)
	}
	if n.ParamJoin != nil {
		dst = append(dst, '#')
		dst = n.ParamJoin.appendString(dst)
	}
	if n.JoinCond != nil {
		dst = n.JoinCond.appendString(dst)
	}
	for _, k := range n.SortKeys {
		dst = k.appendString(dst)
		dst = append(dst, ',')
	}
	for _, a := range n.Aggs {
		dst = append(dst, a.Func.String()...)
		dst = a.Col.appendString(dst)
		dst = append(dst, ',')
	}
	dst = append(dst, ']')
	if n.Left != nil || n.Right != nil {
		dst = append(dst, '(')
		dst = n.Left.appendSignature(dst, spans)
		dst = append(dst, ',')
		dst = n.Right.appendSignature(dst, spans)
		dst = append(dst, ')')
	}
	(*spans)[idx].end = len(dst)
	return dst
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
