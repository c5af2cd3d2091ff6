package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"costest/internal/dataset"
	"costest/internal/plan"
	"costest/internal/sqlpred"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	testEng = NewEngine(testDB)
)

func yearFilter(op sqlpred.Op, v float64) sqlpred.Pred {
	return &sqlpred.Atom{Table: "title", Column: "production_year", Op: op, NumVal: v}
}

func scan(table string, filter sqlpred.Pred) *plan.Node {
	return &plan.Node{Type: plan.SeqScan, Table: table, Filter: filter}
}

func joinNode(t plan.NodeType, cond plan.JoinCond, l, r *plan.Node) *plan.Node {
	return &plan.Node{Type: t, JoinCond: &cond, Left: l, Right: r}
}

var mcTitleJoin = plan.JoinCond{
	Left:  plan.ColRef{Table: "movie_companies", Column: "movie_id"},
	Right: plan.ColRef{Table: "title", Column: "id"},
}

func TestSeqScanMatchesBruteForce(t *testing.T) {
	f := yearFilter(sqlpred.OpGt, 2000)
	rel, err := testEng.Run(scan("title", f))
	if err != nil {
		t.Fatal(err)
	}
	years := testDB.Table("title").IntColumn("production_year")
	want := 0
	for _, y := range years {
		if y > 2000 {
			want++
		}
	}
	if rel.NumRows() != want {
		t.Fatalf("seq scan rows = %d, want %d", rel.NumRows(), want)
	}
}

func TestSeqScanAnnotations(t *testing.T) {
	n := scan("title", nil)
	rel, err := testEng.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if n.TrueRows != float64(testDB.Table("title").NumRows) {
		t.Fatalf("TrueRows = %g", n.TrueRows)
	}
	if n.TrueCost <= 0 {
		t.Fatalf("TrueCost = %g, want > 0", n.TrueCost)
	}
	if rel.NumRows() != testDB.Table("title").NumRows {
		t.Fatal("full scan must return all rows")
	}
}

func TestIndexScanPKRangeMatchesSeqScan(t *testing.T) {
	cond := &sqlpred.Atom{Table: "title", Column: "id", Op: sqlpred.OpLe, NumVal: 50}
	idx := &plan.Node{Type: plan.IndexScan, Table: "title", Index: "title_pkey", IndexCond: cond}
	rel, err := testEng.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 50 {
		t.Fatalf("index scan rows = %d, want 50", rel.NumRows())
	}
}

func TestIndexScanResidualFilter(t *testing.T) {
	cond := &sqlpred.Atom{Table: "title", Column: "id", Op: sqlpred.OpLe, NumVal: 100}
	idx := &plan.Node{Type: plan.IndexScan, Table: "title", Index: "title_pkey",
		IndexCond: cond, Filter: yearFilter(sqlpred.OpGt, 2005)}
	rel, err := testEng.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	years := testDB.Table("title").IntColumn("production_year")
	want := 0
	for i := 0; i < 100; i++ {
		if years[i] > 2005 {
			want++
		}
	}
	if rel.NumRows() != want {
		t.Fatalf("residual-filtered index scan rows = %d, want %d", rel.NumRows(), want)
	}
}

// All join algorithms must produce identical cardinalities — the executor's
// core correctness oracle.
func TestJoinAlgorithmsAgree(t *testing.T) {
	filters := []sqlpred.Pred{nil, yearFilter(sqlpred.OpGt, 2008)}
	for _, f := range filters {
		var cards []int
		for _, typ := range []plan.NodeType{plan.HashJoin, plan.MergeJoin, plan.NestedLoop} {
			n := joinNode(typ, mcTitleJoin, scan("movie_companies", nil), scan("title", f))
			rel, err := testEng.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			cards = append(cards, rel.NumRows())
		}
		// Index nested loop with parameterized inner.
		inner := &plan.Node{Type: plan.IndexScan, Table: "title", Index: "title_pkey",
			ParamJoin: &mcTitleJoin, Filter: f}
		nl := &plan.Node{Type: plan.NestedLoop, JoinCond: &mcTitleJoin,
			Left: scan("movie_companies", nil), Right: inner}
		rel, err := testEng.Run(nl)
		if err != nil {
			t.Fatal(err)
		}
		cards = append(cards, rel.NumRows())

		for i := 1; i < len(cards); i++ {
			if cards[i] != cards[0] {
				t.Fatalf("join algorithms disagree (filter=%v): %v", f, cards)
			}
		}
		if cards[0] == 0 {
			t.Fatalf("join produced no rows (filter=%v)", f)
		}
	}
}

func TestFKJoinCardinality(t *testing.T) {
	// Unfiltered FK-PK join cardinality equals the fact-table size.
	n := joinNode(plan.HashJoin, mcTitleJoin, scan("movie_companies", nil), scan("title", nil))
	rel, err := testEng.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != testDB.Table("movie_companies").NumRows {
		t.Fatalf("FK join rows = %d, want %d", rel.NumRows(), testDB.Table("movie_companies").NumRows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	miTitle := plan.JoinCond{
		Left:  plan.ColRef{Table: "movie_info_idx", Column: "movie_id"},
		Right: plan.ColRef{Table: "title", Column: "id"},
	}
	lower := joinNode(plan.HashJoin, mcTitleJoin, scan("movie_companies", nil), scan("title", yearFilter(sqlpred.OpGt, 2010)))
	top := joinNode(plan.HashJoin, miTitle, lower, scan("movie_info_idx", nil))
	rel, err := testEng.Run(top)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() == 0 {
		t.Fatal("three-way join empty")
	}
	if len(rel.Tables) != 3 || rel.Width != 3 {
		t.Fatalf("relation shape %v width %d", rel.Tables, rel.Width)
	}
	// Cumulative cost must exceed each child's cost.
	if top.TrueCost <= lower.TrueCost {
		t.Fatalf("cumulative cost %g not greater than child %g", top.TrueCost, lower.TrueCost)
	}
}

func TestAggregateNode(t *testing.T) {
	agg := &plan.Node{Type: plan.Aggregate,
		Aggs: []plan.AggSpec{
			{Func: plan.AggMin, Col: plan.ColRef{Table: "title", Column: "production_year"}},
			{Func: plan.AggCount},
		},
		Left: scan("title", yearFilter(sqlpred.OpGt, 2000)),
	}
	rel, err := testEng.Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 {
		t.Fatalf("aggregate rows = %d, want 1", rel.NumRows())
	}
	if agg.TrueRows != 1 {
		t.Fatalf("aggregate TrueRows = %g", agg.TrueRows)
	}
	if agg.CardinalityNode() != agg.Left {
		t.Fatal("CardinalityNode should skip the aggregate")
	}
}

func TestSortNode(t *testing.T) {
	s := &plan.Node{Type: plan.Sort,
		SortKeys: []plan.ColRef{{Table: "title", Column: "production_year"}},
		Left:     scan("title", yearFilter(sqlpred.OpGt, 2012)),
	}
	rel, err := testEng.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != int(s.Left.TrueRows) {
		t.Fatal("sort must preserve cardinality")
	}
	years := testDB.Table("title").IntColumn("production_year")
	for i := 1; i < rel.NumRows(); i++ {
		if years[rel.Row(i)[0]] < years[rel.Row(i - 1)[0]] {
			t.Fatal("sort output not ordered")
		}
	}
}

func TestMaxRowsGuard(t *testing.T) {
	small := NewEngine(testDB)
	small.MaxRows = 10
	n := joinNode(plan.HashJoin, mcTitleJoin, scan("movie_companies", nil), scan("title", nil))
	if _, err := small.Run(n); err != ErrTooBig {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}

	// A join only an Aggregate reads is counted, not built, and is held to
	// the same bound: both inputs fit under it, the join's output does not.
	small.MaxRows = max(testDB.Table("movie_companies").NumRows, testDB.Table("movie_info_idx").NumRows)
	full, err := testEng.Run(joinNode(plan.HashJoin, mcMiJoin, scan("movie_companies", nil), scan("movie_info_idx", nil)))
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRows() <= small.MaxRows {
		t.Fatalf("join of %d rows does not exceed its inputs' %d", full.NumRows(), small.MaxRows)
	}
	inl := &plan.Node{Type: plan.NestedLoop, JoinCond: &mcMiJoin, Left: scan("movie_companies", nil),
		Right: &plan.Node{Type: plan.IndexScan, Table: "movie_info_idx", Index: "movie_info_idx_movie_id_idx", ParamJoin: &mcMiJoin}}
	for _, j := range []*plan.Node{
		joinNode(plan.HashJoin, mcMiJoin, scan("movie_companies", nil), scan("movie_info_idx", nil)),
		joinNode(plan.MergeJoin, mcMiJoin, scan("movie_companies", nil), scan("movie_info_idx", nil)),
		joinNode(plan.NestedLoop, mcMiJoin, scan("movie_companies", nil), scan("movie_info_idx", nil)),
		inl,
	} {
		agg := &plan.Node{Type: plan.Aggregate, Aggs: []plan.AggSpec{{Func: plan.AggCount}}, Left: j}
		if _, err := small.Run(agg); err != ErrTooBig {
			t.Fatalf("counted %v: err = %v, want ErrTooBig", j.Type, err)
		}
	}
}

var mcMiJoin = plan.JoinCond{
	Left:  plan.ColRef{Table: "movie_companies", Column: "movie_id"},
	Right: plan.ColRef{Table: "movie_info_idx", Column: "movie_id"},
}

// labelBits lists the TrueRows and TrueCost bits of every node under n, in
// pre-order.
func labelBits(n *plan.Node) []uint64 {
	var bits []uint64
	n.Walk(func(m *plan.Node) {
		bits = append(bits, math.Float64bits(m.TrueRows), math.Float64bits(m.TrueCost))
	})
	return bits
}

// TestCountedJoinMatchesMaterialized is the differential check of counting:
// a join that only an Aggregate reads is counted instead of built, and every
// node under the Aggregate must carry the same TrueRows and TrueCost bits as
// the same subtree run as the root, where every join is built. A built hash
// or merge join's output is allocated once, at its exact size.
func TestCountedJoinMatchesMaterialized(t *testing.T) {
	miTitle := plan.JoinCond{
		Left:  plan.ColRef{Table: "movie_info_idx", Column: "movie_id"},
		Right: plan.ColRef{Table: "title", Column: "id"},
	}
	joins := map[string]func(f sqlpred.Pred) *plan.Node{
		"hash": func(f sqlpred.Pred) *plan.Node {
			return joinNode(plan.HashJoin, mcTitleJoin, scan("movie_companies", nil), scan("title", f))
		},
		"merge": func(f sqlpred.Pred) *plan.Node {
			return joinNode(plan.MergeJoin, mcTitleJoin, scan("movie_companies", nil), scan("title", f))
		},
		"nested loop": func(f sqlpred.Pred) *plan.Node {
			return joinNode(plan.NestedLoop, mcTitleJoin, scan("movie_companies", nil), scan("title", f))
		},
		"index nested loop on a primary key": func(f sqlpred.Pred) *plan.Node {
			return &plan.Node{Type: plan.NestedLoop, JoinCond: &mcTitleJoin, Left: scan("movie_companies", nil),
				Right: &plan.Node{Type: plan.IndexScan, Table: "title", Index: "title_pkey", ParamJoin: &mcTitleJoin, Filter: f}}
		},
		"index nested loop on a secondary index": func(f sqlpred.Pred) *plan.Node {
			return &plan.Node{Type: plan.NestedLoop, JoinCond: &miTitle, Left: scan("title", f),
				Right: &plan.Node{Type: plan.IndexScan, Table: "movie_info_idx", Index: "movie_info_idx_movie_id_idx", ParamJoin: &miTitle}}
		},
		"many-to-many merge": func(f sqlpred.Pred) *plan.Node {
			return joinNode(plan.MergeJoin, mcMiJoin, scan("movie_companies", nil), scan("movie_info_idx", nil))
		},
		"hash over two joins": func(f sqlpred.Pred) *plan.Node {
			lower := joinNode(plan.NestedLoop, mcTitleJoin, scan("movie_companies", nil), scan("title", f))
			return joinNode(plan.HashJoin, miTitle, joinNode(plan.MergeJoin, mcMiJoin, lower, scan("movie_info_idx", nil)),
				scan("title", nil))
		},
	}
	filters := []sqlpred.Pred{nil, yearFilter(sqlpred.OpGt, 2008), yearFilter(sqlpred.OpGt, 3000)}
	for name, build := range joins {
		for _, f := range filters {
			root := build(f)
			rel, err := testEng.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if root.Type != plan.NestedLoop && cap(rel.Data) != len(rel.Data) {
				t.Errorf("%s (filter %v): built output has len %d, cap %d", name, f, len(rel.Data), cap(rel.Data))
			}
			agg := &plan.Node{Type: plan.Aggregate, Aggs: []plan.AggSpec{{Func: plan.AggCount}}, Left: build(f)}
			if _, err := testEng.Run(agg); err != nil {
				t.Fatal(err)
			}
			if got, want := labelBits(agg.Left), labelBits(root); !slices.Equal(got, want) {
				t.Errorf("%s (filter %v): counted labels %v, built %v", name, f, got, want)
			}
			if agg.TrueRows != 1 {
				t.Errorf("%s: aggregate TrueRows = %g", name, agg.TrueRows)
			}
		}
	}
}

func TestFilterMonotonicity(t *testing.T) {
	loose := scan("title", yearFilter(sqlpred.OpGt, 1990))
	tight := scan("title", sqlpred.AndAll(yearFilter(sqlpred.OpGt, 1990), yearFilter(sqlpred.OpLt, 2000)))
	rl, err := testEng.Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := testEng.Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumRows() > rl.NumRows() {
		t.Fatal("AND-tightened filter produced more rows")
	}
}

// Join cardinality with a random PK filter must equal the brute-force count:
// a randomized oracle over the hash-join path.
func TestHashJoinOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mc := testDB.Table("movie_companies")
	title := testDB.Table("title")
	years := title.IntColumn("production_year")
	movieIDs := mc.IntColumn("movie_id")
	for trial := 0; trial < 5; trial++ {
		y := float64(1990 + rng.Intn(25))
		n := joinNode(plan.HashJoin, mcTitleJoin,
			scan("movie_companies", nil), scan("title", yearFilter(sqlpred.OpGt, y)))
		rel, err := testEng.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, m := range movieIDs {
			if years[title.PKRow(m)] > int64(y) {
				want++
			}
		}
		if rel.NumRows() != want {
			t.Fatalf("trial %d: join rows = %d, want %d", trial, rel.NumRows(), want)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := testEng.Run(scan("nope", nil)); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := testEng.Run(&plan.Node{Type: plan.IndexScan, Table: "title"}); err == nil {
		t.Error("index scan without condition must error")
	}
	bad := &plan.Node{Type: plan.IndexScan, Table: "title",
		ParamJoin: &mcTitleJoin}
	if _, err := testEng.Run(bad); err == nil {
		t.Error("orphan parameterized scan must error")
	}
}

func TestCountersCost(t *testing.T) {
	var c Counters
	base := c.Cost()
	c.SeqPages = 100
	if c.Cost() <= base {
		t.Error("cost must grow with work")
	}
}

func TestPlanHelpers(t *testing.T) {
	n := joinNode(plan.HashJoin, mcTitleJoin, scan("movie_companies", nil), scan("title", nil))
	if got := n.Depth(); got != 2 {
		t.Errorf("Depth = %d", got)
	}
	sig1 := n.Signature()
	n2 := joinNode(plan.HashJoin, mcTitleJoin, scan("title", nil), scan("movie_companies", nil))
	if sig1 == n2.Signature() {
		t.Error("different plans share a signature")
	}
	c := n.Clone()
	if c.Signature() != sig1 {
		t.Error("clone signature differs")
	}
	if c.Left == n.Left {
		t.Error("clone must deep-copy children")
	}
}

// The cache-spill nonlinearity: doubling hash-build rows beyond the cache
// threshold must more than double the hash join's own cost — the effect a
// linear cost model cannot express.
func TestCostNonlinearity(t *testing.T) {
	small := Counters{HashBuild: 2048, HashProbe: 2048}
	big := Counters{HashBuild: 16384, HashProbe: 16384}
	huge := Counters{HashBuild: 65536, HashProbe: 65536}
	rSmall := small.Cost() - (Counters{}).Cost()
	rBig := big.Cost() - (Counters{}).Cost()
	rHuge := huge.Cost() - (Counters{}).Cost()
	// Per-row cost must increase with scale once past the cache threshold.
	if rBig/16384 <= rSmall/2048 {
		t.Errorf("per-row cost did not increase past cache: %g vs %g", rBig/16384, rSmall/2048)
	}
	if rHuge/65536 <= rBig/16384*0.99 {
		t.Errorf("per-row cost should keep growing: %g vs %g", rHuge/65536, rBig/16384)
	}
	// Sort spill grows superlinearly too.
	s1 := Counters{SortedRows: 8192}.Cost()
	s2 := Counters{SortedRows: 32768}.Cost()
	if s2 <= 4*(s1-(Counters{}).Cost())+(Counters{}).Cost() {
		t.Log("sort spill mild at these sizes (acceptable)")
	}
}
