package feature

import (
	"reflect"
	"testing"

	"costest/internal/plan"
	"costest/internal/query"
	"costest/internal/sqlpred"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// planned plans the queries, dropping the few the planner cannot place.
func planned(tb testing.TB, workloads ...[]*query.Query) []*plan.Node {
	tb.Helper()
	var plans []*plan.Node
	total := 0
	for _, qs := range workloads {
		total += len(qs)
		for _, q := range qs {
			if p, err := testPl.Plan(q); err == nil {
				plans = append(plans, p)
			}
		}
	}
	if len(plans) < total*2/3 {
		tb.Fatalf("only %d/%d queries planned", len(plans), total)
	}
	return plans
}

// shapedPlans are hand-built plans for the encoder branches the planner
// rarely or never takes on this database: an index condition alone and
// folded into a filter, IN lists, a parameterized inner index scan, nested
// OR/AND trees, special floats in operands.
func shapedPlans() []*plan.Node {
	num := func(col string, op sqlpred.Op, v float64) *sqlpred.Atom {
		return &sqlpred.Atom{Table: "title", Column: col, Op: op, NumVal: v}
	}
	in := &sqlpred.Atom{Table: "company_type", Column: "kind", Op: sqlpred.OpIn,
		InVals: []string{"distributors", "production companies", ""}, IsStr: true}
	idx := testDB.Schema.IndexOn("title", "id").Name
	idCond := num("id", sqlpred.OpLe, 1e6)
	pj := &plan.JoinCond{Left: plan.ColRef{Table: "movie_companies", Column: "movie_id"}, Right: plan.ColRef{Table: "title", Column: "id"}}
	return []*plan.Node{
		sevenNodePlan(),
		{Type: plan.IndexScan, Table: "title", Index: idx, IndexCond: idCond},
		{Type: plan.IndexScan, Table: "title", Index: idx, IndexCond: idCond,
			Filter: sqlpred.OrAll(num("production_year", sqlpred.OpGt, 1999.5), sqlpred.AndAll(
				num("kind_id", sqlpred.OpNe, -0.0), num("episode_nr", sqlpred.OpGe, 1e-7), num("season_nr", sqlpred.OpLt, 1e21)))},
		{Type: plan.SeqScan, Table: "company_type", Filter: in},
		{Type: plan.NestedLoop, JoinCond: pj,
			Left:  &plan.Node{Type: plan.SeqScan, Table: "movie_companies"},
			Right: &plan.Node{Type: plan.IndexScan, Table: "title", Index: idx, ParamJoin: pj, Filter: num("kind_id", sqlpred.OpEq, 2)}},
		{Type: plan.Sort, SortKeys: []plan.ColRef{{Table: "title", Column: "id"}, {Table: "title", Column: "kind_id"}},
			Left: &plan.Node{Type: plan.SeqScan, Table: "title"}},
	}
}

// TestEncodeMatchesOracle: over the workload plan mix, under both string
// encoders, every EncodedNode.Sig is byte for byte plan.Node.Signature() of
// its subtree (old and new formulation), and the whole EncodedPlan — every
// vector, predicate tree, level and target — equals the old encoder's.
func TestEncodeMatchesOracle(t *testing.T) {
	// Scale and JOBFull are the request traffic, TrainingNumeric the daemon's
	// training corpus.
	plans := append(shapedPlans(), planned(t, workload.Scale(testDB, 7, 120),
		workload.JOBFull(testDB, 7, 120), workload.TrainingNumeric(testDB, 7, 120))...)
	encoders := map[string]*Encoder{
		"hash":     newEncoder(),
		"zero":     NewEncoder(testCat, strembed.ZeroEncoder{}, true),
		"nobitmap": NewEncoder(testCat, strembed.HashEmbedder{DimN: 16}, false),
	}
	nodes, maxNodes, maxDepth, maxPreds, strAtoms, indexConds := 0, 0, 0, 0, 0, 0
	for name, e := range encoders {
		for i, p := range plans {
			got, err := e.Encode(p)
			if err != nil {
				t.Fatalf("%s: plan %d: %v", name, i, err)
			}
			want, err := oldEncode(e, p)
			if err != nil {
				t.Fatalf("%s: plan %d: oracle: %v", name, i, err)
			}
			var subtrees []*plan.Node
			p.Walk(func(n *plan.Node) { subtrees = append(subtrees, n) })
			for j, n := range subtrees {
				if sig := got.Nodes[j].Sig; sig != n.Signature() || sig != oldSignature(n) {
					t.Fatalf("%s: plan %d node %d: Sig drift\n     got %q\n     now %q\noriginal %q",
						name, i, j, sig, n.Signature(), oldSignature(n))
				}
			}
			normalizeEmpty(got)
			normalizeEmpty(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: plan %d (%s): encoding differs from the oracle\n got %+v\nwant %+v",
					name, i, p.Signature(), got, want)
			}
			if name != "hash" {
				continue
			}
			nodes += len(subtrees)
			maxNodes, maxDepth = max(maxNodes, len(subtrees)), max(maxDepth, p.Depth())
			for _, n := range subtrees {
				maxPreds = max(maxPreds, predNodes(n))
				if n.IndexCond != nil {
					indexConds++
				}
				sqlpred.Walk(n.Filter, func(a *sqlpred.Atom) {
					if a.IsStr {
						strAtoms++
					}
				})
			}
		}
	}
	// The mix must reach the branches the encoder special-cases.
	if strAtoms == 0 || indexConds == 0 || maxPreds < 3 {
		t.Fatalf("plan mix too plain: %d string atoms, %d index conditions, max %d predicate nodes",
			strAtoms, indexConds, maxPreds)
	}
	t.Logf("%d plans, %d nodes; largest %d nodes, depth %d, %d predicate nodes on a node",
		len(plans), nodes, maxNodes, maxDepth, maxPreds)
}

// normalizeEmpty maps the two spellings of "no elements" onto one: the old
// encoder left absent predicate trees nil, which DeepEqual distinguishes from
// an empty non-nil slice though no consumer does.
func normalizeEmpty(ep *EncodedPlan) {
	for i := range ep.Nodes {
		if len(ep.Nodes[i].Pred.Nodes) == 0 {
			ep.Nodes[i].Pred.Nodes = nil
		}
	}
}

// sevenNodePlan is a three-way join under a sort and an aggregate, with a
// numeric filter, a string filter and an index condition.
func sevenNodePlan() *plan.Node {
	year := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2005}
	kind := &sqlpred.Atom{Table: "title", Column: "kind_id", Op: sqlpred.OpEq, NumVal: 1}
	note := &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpLike,
		StrVal: "%(co-production)%", IsStr: true}
	id := &sqlpred.Atom{Table: "movie_info_idx", Column: "movie_id", Op: sqlpred.OpLt, NumVal: 500}
	col := func(t, c string) plan.ColRef { return plan.ColRef{Table: t, Column: c} }
	return &plan.Node{Type: plan.Aggregate,
		Aggs: []plan.AggSpec{{Func: plan.AggCount}, {Func: plan.AggMin, Col: col("title", "production_year")}},
		Left: &plan.Node{Type: plan.Sort, SortKeys: []plan.ColRef{col("title", "production_year")},
			Left: &plan.Node{Type: plan.HashJoin,
				JoinCond: &plan.JoinCond{Left: col("movie_info_idx", "movie_id"), Right: col("title", "id")},
				Left: &plan.Node{Type: plan.IndexScan, Table: "movie_info_idx",
					Index: testDB.Schema.IndexOn("movie_info_idx", "movie_id").Name, IndexCond: id},
				Right: &plan.Node{Type: plan.MergeJoin,
					JoinCond: &plan.JoinCond{Left: col("movie_companies", "movie_id"), Right: col("title", "id")},
					Left:     &plan.Node{Type: plan.SeqScan, Table: "movie_companies", Filter: note},
					Right:    &plan.Node{Type: plan.SeqScan, Table: "title", Filter: sqlpred.AndAll(year, kind)},
				},
			},
		},
	}
}

// TestEncodeAllocs caps what one Encode may allocate. The old encoder spent
// about 290 allocations on this plan (a vector each for every node and
// predicate node, a Signature re-walk per node through fmt); the sized
// single pass needs a fixed handful plus the per-atom predicate compilation.
func TestEncodeAllocs(t *testing.T) {
	root := sevenNodePlan()
	if root.Count() != 7 {
		t.Fatalf("test plan has %d nodes, want 7", root.Count())
	}
	e := NewEncoder(testCat, strembed.ZeroEncoder{}, true) // the daemon's encoder
	if _, err := e.Encode(root); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() { e.Encode(root) })
	old := testing.AllocsPerRun(50, func() { oldEncode(e, root) })
	t.Logf("Encode: %.0f allocs/plan (oracle: %.0f)", got, old)
	if got > 100 {
		t.Fatalf("Encode allocates %.0f times on a 7-node plan, ceiling 100", got)
	}
}

var benchSink *EncodedPlan

// BenchmarkEncode measures Encode over the request-traffic plan mix (Scale
// and JOBFull) with the daemon's encoder; ns/op and allocs/op are per plan.
func BenchmarkEncode(b *testing.B) {
	plans := planned(b, workload.Scale(testDB, 7, 128), workload.JOBFull(testDB, 7, 128))
	e := NewEncoder(testCat, strembed.ZeroEncoder{}, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := e.Encode(plans[i%len(plans)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ep
	}
}
