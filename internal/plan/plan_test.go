package plan

import (
	"strings"
	"testing"

	"costest/internal/sqlpred"
)

func sampleTree() *Node {
	return &Node{Type: Aggregate,
		Aggs: []AggSpec{{Func: AggCount}},
		Left: &Node{Type: HashJoin,
			JoinCond: &JoinCond{
				Left:  ColRef{Table: "movie_companies", Column: "movie_id"},
				Right: ColRef{Table: "title", Column: "id"},
			},
			Left: &Node{Type: SeqScan, Table: "movie_companies"},
			Right: &Node{Type: SeqScan, Table: "title",
				Filter: &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2000}},
		},
	}
}

func TestNodeTypePredicates(t *testing.T) {
	if !HashJoin.IsJoin() || !MergeJoin.IsJoin() || !NestedLoop.IsJoin() {
		t.Error("join predicates wrong")
	}
	if SeqScan.IsJoin() || Aggregate.IsJoin() {
		t.Error("non-joins classified as joins")
	}
	if !SeqScan.IsScan() || !IndexScan.IsScan() {
		t.Error("scan predicates wrong")
	}
	if HashJoin.IsScan() {
		t.Error("join classified as scan")
	}
}

func TestNodeTypeStrings(t *testing.T) {
	names := map[NodeType]string{
		SeqScan: "Seq Scan", IndexScan: "Index Scan", HashJoin: "Hash Join",
		MergeJoin: "Merge Join", NestedLoop: "Nested Loop", Sort: "Sort", Aggregate: "Aggregate",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestWalkOrder(t *testing.T) {
	var order []NodeType
	sampleTree().Walk(func(n *Node) { order = append(order, n.Type) })
	want := []NodeType{Aggregate, HashJoin, SeqScan, SeqScan}
	if len(order) != len(want) {
		t.Fatalf("walk visited %d nodes", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("walk order %v", order)
		}
	}
}

func TestCountDepthTables(t *testing.T) {
	n := sampleTree()
	if n.Count() != 4 {
		t.Errorf("Count = %d", n.Count())
	}
	if n.Depth() != 3 {
		t.Errorf("Depth = %d", n.Depth())
	}
	tabs := n.Tables()
	if len(tabs) != 2 || tabs[0] != "movie_companies" || tabs[1] != "title" {
		t.Errorf("Tables = %v", tabs)
	}
}

func TestSignatureDistinguishesPlans(t *testing.T) {
	a := sampleTree()
	b := sampleTree()
	if a.Signature() != b.Signature() {
		t.Error("identical plans must share signatures")
	}
	b.Left.Type = MergeJoin
	if a.Signature() == b.Signature() {
		t.Error("different operators must change the signature")
	}
	c := sampleTree()
	c.Left.Right.Filter = &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2001}
	if a.Signature() == c.Signature() {
		t.Error("different predicate constants must change the signature")
	}
}

func TestSignatureSubtreesDiffer(t *testing.T) {
	n := sampleTree()
	seen := map[string]bool{}
	n.Walk(func(m *Node) {
		sig := m.Signature()
		if seen[sig] {
			t.Errorf("duplicate subtree signature %q", sig)
		}
		seen[sig] = true
	})
}

func TestCloneIndependence(t *testing.T) {
	a := sampleTree()
	a.TrueRows = 42
	b := a.Clone()
	if b.TrueRows != 42 {
		t.Error("clone must copy annotations")
	}
	b.Left.TrueRows = 7
	if a.Left.TrueRows == 7 {
		t.Error("clone must not share child nodes")
	}
}

func TestCardinalityNode(t *testing.T) {
	n := sampleTree()
	if n.CardinalityNode() != n.Left {
		t.Error("CardinalityNode must skip the aggregate")
	}
	scan := &Node{Type: SeqScan, Table: "title"}
	if scan.CardinalityNode() != scan {
		t.Error("scan is its own cardinality node")
	}
	sorted := &Node{Type: Sort, Left: scan}
	if sorted.CardinalityNode() != scan {
		t.Error("CardinalityNode must skip sorts")
	}
}

func TestStringRendering(t *testing.T) {
	out := sampleTree().String()
	for _, want := range []string{"Aggregate", "Hash Join", "Seq Scan on title",
		"movie_companies.movie_id = title.id", "production_year > 2000"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan string missing %q:\n%s", want, out)
		}
	}
}

func TestAggFuncStrings(t *testing.T) {
	if AggMin.String() != "MIN" || AggMax.String() != "MAX" || AggCount.String() != "COUNT" {
		t.Error("aggregate function names wrong")
	}
}
