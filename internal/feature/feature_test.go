package feature

import (
	"testing"

	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/pg"
	"costest/internal/plan"
	"costest/internal/planner"
	"costest/internal/sqlpred"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	testEng = exec.NewEngine(testDB)
	testPl  = planner.New(pg.New(testCat), testDB.Schema)
)

// countNodes returns the number of nodes in the plan tree.
func countNodes(n *plan.Node) int {
	c := 0
	n.Walk(func(*plan.Node) { c++ })
	return c
}

func newEncoder() *Encoder {
	return NewEncoder(testCat, strembed.HashEmbedder{DimN: 16}, true)
}

func executedPlan(t *testing.T) *plan.Node {
	t.Helper()
	f := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2005}
	note := &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpLike,
		StrVal: "%(co-production)%", IsStr: true}
	root := &plan.Node{Type: plan.Aggregate,
		Aggs: []plan.AggSpec{{Func: plan.AggCount}},
		Left: &plan.Node{Type: plan.HashJoin,
			JoinCond: &plan.JoinCond{
				Left:  plan.ColRef{Table: "movie_companies", Column: "movie_id"},
				Right: plan.ColRef{Table: "title", Column: "id"},
			},
			Left:  &plan.Node{Type: plan.SeqScan, Table: "movie_companies", Filter: note},
			Right: &plan.Node{Type: plan.SeqScan, Table: "title", Filter: f},
		},
	}
	if _, err := testEng.Run(root); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestEncodePlanShape(t *testing.T) {
	e := newEncoder()
	ep, err := e.Encode(executedPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Nodes) != 4 {
		t.Fatalf("encoded %d nodes, want 4", len(ep.Nodes))
	}
	root := ep.Nodes[ep.Root]
	if root.Op[int(plan.Aggregate)] != 1 {
		t.Fatal("root op one-hot wrong")
	}
	// DFS preorder: root=0, join=1, left scan=2, right scan=3.
	if root.Left != 1 || root.Right != -1 {
		t.Fatalf("root children = (%d,%d)", root.Left, root.Right)
	}
	join := ep.Nodes[1]
	if join.Left != 2 || join.Right != 3 {
		t.Fatalf("join children = (%d,%d)", join.Left, join.Right)
	}
	if ep.Cost <= 0 || ep.Card <= 0 {
		t.Fatalf("targets cost=%g card=%g", ep.Cost, ep.Card)
	}
	if ep.CardNode != 1 {
		t.Fatalf("CardNode = %d, want the join", ep.CardNode)
	}
}

func TestOneHotVectorsValid(t *testing.T) {
	e := newEncoder()
	ep, err := e.Encode(executedPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ep.Nodes {
		ones := 0
		for _, v := range n.Op {
			if v != 0 && v != 1 {
				t.Fatalf("node %d op vector not 0/1", i)
			}
			if v == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("node %d op one-hot has %d ones", i, ones)
		}
		if len(n.Meta) != e.MetaDim() {
			t.Fatalf("node %d meta dim %d, want %d", i, len(n.Meta), e.MetaDim())
		}
	}
}

func TestMetaBitsSet(t *testing.T) {
	e := newEncoder()
	ep, err := e.Encode(executedPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	s := testDB.Schema
	// The title scan (node 3) must set title's table bit and
	// production_year's column bit.
	scanNode := ep.Nodes[3]
	colBit := s.ColumnID("title", "production_year")
	tableBit := s.NumColumns() + s.TableID("title")
	if scanNode.Meta[colBit] != 1 {
		t.Error("production_year column bit unset")
	}
	if scanNode.Meta[tableBit] != 1 {
		t.Error("title table bit unset")
	}
	// The join node must set both join columns.
	join := ep.Nodes[1]
	if join.Meta[s.ColumnID("movie_companies", "movie_id")] != 1 ||
		join.Meta[s.ColumnID("title", "id")] != 1 {
		t.Error("join column bits unset")
	}
}

func TestSampleBitmapOnlyOnScans(t *testing.T) {
	e := newEncoder()
	ep, err := e.Encode(executedPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if ep.Nodes[0].Bitmap != nil || ep.Nodes[1].Bitmap != nil {
		t.Error("non-scan nodes must not carry bitmaps")
	}
	for _, i := range []int{2, 3} {
		if len(ep.Nodes[i].Bitmap) != testCat.SampleSize {
			t.Errorf("scan node %d bitmap len %d", i, len(ep.Nodes[i].Bitmap))
		}
	}
	// Disabled bitmaps.
	e2 := NewEncoder(testCat, strembed.HashEmbedder{DimN: 16}, false)
	ep2, err := e2.Encode(executedPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ep2.Nodes {
		if n.Bitmap != nil {
			t.Errorf("node %d has bitmap with feature disabled", i)
		}
	}
	if e2.BitmapDim() != 0 {
		t.Error("BitmapDim should be 0 when disabled")
	}
}

func TestPredicateEncoding(t *testing.T) {
	e := newEncoder()
	p := sqlpred.AndAll(
		&sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2000},
		&sqlpred.Bool{Kind: sqlpred.Or,
			Left:  &sqlpred.Atom{Table: "title", Column: "kind_id", Op: sqlpred.OpEq, NumVal: 1},
			Right: &sqlpred.Atom{Table: "title", Column: "episode_nr", Op: sqlpred.OpLt, NumVal: 5},
		},
	)
	scan, err := e.Encode(&plan.Node{Type: plan.SeqScan, Table: "title", Filter: p})
	if err != nil {
		t.Fatal(err)
	}
	ep := scan.Nodes[0].Pred
	if len(ep.Nodes) != 5 {
		t.Fatalf("pred nodes = %d, want 5", len(ep.Nodes))
	}
	root := ep.Nodes[0]
	if root.IsLeaf || root.Bool != sqlpred.And || root.Vec[0] != 1 {
		t.Fatal("root must be AND with isAnd marker")
	}
	or := ep.Nodes[root.Right]
	if or.IsLeaf || or.Bool != sqlpred.Or || or.Vec[1] != 1 {
		t.Fatal("right child must be OR with isOr marker")
	}
	leaf := ep.Nodes[root.Left]
	if !leaf.IsLeaf {
		t.Fatal("left child must be the year atom")
	}
	// Numeric operand is normalized into [0,1].
	numPos := 2 + testDB.Schema.NumColumns() + int(sqlpred.NumOps)
	if leaf.Vec[numPos] < 0 || leaf.Vec[numPos] > 1 {
		t.Fatalf("normalized operand = %g", leaf.Vec[numPos])
	}
	if leaf.Vec[numPos] == 0 {
		t.Error("year 2000 should normalize above 0")
	}
}

func TestStringOperandEmbedded(t *testing.T) {
	e := newEncoder()
	a := &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpLike,
		StrVal: "%(presents)%", IsStr: true}
	vec := make([]float64, e.AtomDim())
	if err := e.encodeAtomVec(vec, a); err != nil {
		t.Fatal(err)
	}
	strBase := 2 + testDB.Schema.NumColumns() + int(sqlpred.NumOps) + 1
	var sum float64
	for _, v := range vec[strBase:] {
		sum += v
	}
	if sum == 0 {
		t.Fatal("string operand embedding all zeros")
	}
}

func TestINOperandAveraged(t *testing.T) {
	e := newEncoder()
	a := &sqlpred.Atom{Table: "company_type", Column: "kind", Op: sqlpred.OpIn,
		InVals: []string{"distributors", "production companies"}, IsStr: true}
	vec := make([]float64, e.AtomDim())
	if err := e.encodeAtomVec(vec, a); err != nil {
		t.Fatal(err)
	}
	strBase := 2 + testDB.Schema.NumColumns() + int(sqlpred.NumOps) + 1
	hash := strembed.HashEmbedder{DimN: 16}
	v0, v1 := hash.Embed(a.InVals[0]), hash.Embed(a.InVals[1])
	for i, got := range vec[strBase:] {
		if want := (v0[i] + v1[i]) / 2; got != want {
			t.Fatalf("IN operand[%d] = %g, want the mean %g", i, got, want)
		}
	}
	// An empty IN list has no operand, not a 0/0 one.
	clear(vec)
	if err := e.encodeAtomVec(vec, &sqlpred.Atom{Table: "company_type", Column: "kind", Op: sqlpred.OpIn, IsStr: true}); err != nil {
		t.Fatal(err)
	}
	for i, got := range vec[strBase:] {
		if got != 0 {
			t.Fatalf("empty IN operand[%d] = %g, want 0", i, got)
		}
	}
}

func TestUnknownColumnErrors(t *testing.T) {
	e := newEncoder()
	a := &sqlpred.Atom{Table: "title", Column: "nope", Op: sqlpred.OpEq, NumVal: 1}
	if err := e.encodeAtomVec(make([]float64, e.AtomDim()), a); err == nil {
		t.Fatal("unknown column must error")
	}
	scan := &plan.Node{Type: plan.SeqScan, Table: "title", Filter: a}
	if _, err := e.Encode(scan); err == nil {
		t.Fatal("plan with an unknown filter column must not encode")
	}
	join := &plan.Node{Type: plan.HashJoin,
		JoinCond: &plan.JoinCond{Left: plan.ColRef{Table: "title", Column: "nope"}, Right: plan.ColRef{Table: "title", Column: "id"}},
		Left:     &plan.Node{Type: plan.SeqScan, Table: "title"}, Right: &plan.Node{Type: plan.SeqScan, Table: "title"}}
	if _, err := e.Encode(join); err == nil {
		t.Fatal("plan with an unknown join column must not encode")
	}
}

func TestLevelsBottomUp(t *testing.T) {
	e := newEncoder()
	ep, err := e.Encode(executedPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if ep.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", ep.Depth())
	}
	// Level 0 holds both scans; level 1 the join; level 2 the aggregate.
	if len(ep.Levels[0]) != 2 || len(ep.Levels[1]) != 1 || len(ep.Levels[2]) != 1 {
		t.Fatalf("levels = %v", ep.Levels)
	}
	// Children always live in lower levels than parents.
	levelOf := make(map[int32]int)
	for l, nodes := range ep.Levels {
		for _, n := range nodes {
			levelOf[n] = l
		}
	}
	for i, n := range ep.Nodes {
		for _, c := range []int{n.Left, n.Right} {
			if c >= 0 && levelOf[int32(c)] >= levelOf[int32(i)] {
				t.Fatalf("child %d at level %d >= parent %d at %d",
					c, levelOf[int32(c)], i, levelOf[int32(i)])
			}
		}
	}
}

func TestEncodeRealWorkloadPlans(t *testing.T) {
	qs := workload.JOBFull(testDB, 31, 5)
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	samples := lab.Label(qs)
	if len(samples) == 0 {
		t.Skip("no labelable JOB queries at this scale")
	}
	e := newEncoder()
	for _, s := range samples {
		ep, err := e.Encode(s.Plan)
		if err != nil {
			t.Fatalf("encoding %s: %v", s.Query.SQL(), err)
		}
		if len(ep.Nodes) != countNodes(s.Plan) {
			t.Fatalf("node count mismatch: %d vs %d", len(ep.Nodes), countNodes(s.Plan))
		}
		if ep.Cost != s.Cost || ep.Card != s.Card {
			t.Fatal("targets not copied from plan annotations")
		}
	}
}

func TestZeroEncoderIntegration(t *testing.T) {
	e := NewEncoder(testCat, strembed.ZeroEncoder{}, true)
	base := 2 + testDB.Schema.NumColumns() + int(sqlpred.NumOps) + 1
	if e.AtomDim() != base {
		t.Fatalf("AtomDim = %d, want %d", e.AtomDim(), base)
	}
	ep, err := e.Encode(executedPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Nodes) != 4 {
		t.Fatal("encode with zero string dims failed")
	}
}
