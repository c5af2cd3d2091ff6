package plan_test

import (
	"math"
	"testing"

	"costest/internal/plan"
	"costest/internal/plan/plantest"
	"costest/internal/sqlpred"
)

func idOf(n *plan.Node) plan.ID { return n.AppendIDs(nil)[0] }

// TestAppendIDs: one pass yields every subtree's ID in Walk order, each the
// ID that subtree has on its own; a nil plan has no subtrees; a warm pass
// into a sized dst allocates nothing; Signature spells the root's ID.
func TestAppendIDs(t *testing.T) {
	n := plan.SampleTree()
	ids := n.AppendIDs(nil)
	i := 0
	n.Walk(func(m *plan.Node) {
		if i >= len(ids) || ids[i] != idOf(m) {
			t.Errorf("subtree %d: AppendIDs disagrees with the subtree's own ID", i)
		}
		i++
	})
	if len(ids) != i {
		t.Errorf("%d IDs for %d nodes", len(ids), i)
	}
	var none *plan.Node
	if got := none.AppendIDs(nil); len(got) != 0 {
		t.Errorf("nil plan: %d IDs", len(got))
	}
	if allocs := testing.AllocsPerRun(100, func() { ids = n.AppendIDs(ids[:0]) }); allocs != 0 {
		t.Errorf("AppendIDs allocates %.0f times into a sized dst", allocs)
	}
	if sig := n.Signature(); len(sig) != 32 || sig != plan.SampleTree().Signature() {
		t.Errorf("Signature %q: want 32 hex digits, equal for equal plans", sig)
	}
}

// TestIDFieldFlips: each pair differs in one field the old text signature
// could blur, and each flip must change the ID. The pairs also go through the
// identity differential.
func TestIDFieldFlips(t *testing.T) {
	scan := func(f sqlpred.Pred) *plan.Node { return &plan.Node{Type: plan.SeqScan, Table: "title", Filter: f} }
	atom := func(a sqlpred.Atom) *sqlpred.Atom {
		if a.Table == "" {
			a.Table, a.Column = "title", "production_year"
		}
		return &a
	}
	sorted := func(keys []plan.ColRef, aggs []plan.AggSpec) *plan.Node {
		return &plan.Node{Type: plan.Sort, SortKeys: keys, Aggs: aggs, Left: scan(nil)}
	}
	x, y := atom(sqlpred.Atom{Op: sqlpred.OpGt, NumVal: 1}), atom(sqlpred.Atom{Op: sqlpred.OpLt, NumVal: 9})
	for _, c := range []struct {
		name string
		a, b *plan.Node
	}{
		{"0 vs -0", scan(atom(sqlpred.Atom{NumVal: 0})), scan(atom(sqlpred.Atom{NumVal: math.Copysign(0, -1)}))},
		{"IsStr", scan(atom(sqlpred.Atom{StrVal: "1", NumVal: 1})), scan(atom(sqlpred.Atom{StrVal: "1", NumVal: 1, IsStr: true}))},
		{"InVals", scan(atom(sqlpred.Atom{Op: sqlpred.OpIn, InVals: []string{"ab"}, IsStr: true})),
			scan(atom(sqlpred.Atom{Op: sqlpred.OpIn, InVals: []string{"a", "b"}, IsStr: true}))},
		{"Table/Column boundary", scan(atom(sqlpred.Atom{Table: "ab", Column: "c"})), scan(atom(sqlpred.Atom{Table: "a", Column: "bc"}))},
		{"sort key boundary", sorted([]plan.ColRef{{Table: "ab", Column: "c"}}, nil), sorted([]plan.ColRef{{Table: "a", Column: "bc"}}, nil)},
		{"SortKey vs Agg", sorted([]plan.ColRef{{Table: "t", Column: "c"}}, nil), sorted(nil, []plan.AggSpec{{Func: plan.AggMin, Col: plan.ColRef{Table: "t", Column: "c"}}})},
		{"left vs right child", &plan.Node{Type: plan.Sort, Left: scan(nil)}, &plan.Node{Type: plan.Sort, Right: scan(nil)}},
		{"AND vs OR", scan(&sqlpred.Bool{Kind: sqlpred.And, Left: x, Right: y}), scan(&sqlpred.Bool{Kind: sqlpred.Or, Left: x, Right: y})},
	} {
		if idOf(c.a) == idOf(c.b) {
			t.Errorf("%s: the flip kept the ID", c.name)
		}
		plantest.CheckIDs(t, c.a, c.b)
	}
}

// TestIDsMatchStructure runs the identity differential over plans built to
// repeat: equal subtrees in different trees and positions, and trees that
// differ only in their annotations.
func TestIDsMatchStructure(t *testing.T) {
	a, b := plan.SampleTree(), plan.SampleTree()
	b.Walk(func(n *plan.Node) { n.EstRows, n.TrueRows, n.EstCost, n.TrueCost = 1, 2, 3, 4 })
	c := plan.SampleTree()
	c.Left.Type = plan.MergeJoin
	d := &plan.Node{Type: plan.HashJoin, JoinCond: c.Left.JoinCond, Left: c.Left.Right, Right: a.Left.Left}
	plantest.CheckIDs(t, a, b, c, d)
	if idOf(a) != idOf(b) {
		t.Error("plans differing only in annotations have different IDs")
	}
}
