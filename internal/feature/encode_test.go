package feature

import (
	"reflect"
	"strings"
	"testing"

	"costest/internal/plan"
	"costest/internal/plan/plantest"
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
			Filter: &sqlpred.Bool{Kind: sqlpred.Or, Left: num("production_year", sqlpred.OpGt, 1999.5), Right: sqlpred.AndAll(
				num("kind_id", sqlpred.OpNe, -0.0), num("episode_nr", sqlpred.OpGe, 1e-7), num("season_nr", sqlpred.OpLt, 1e21))}},
		{Type: plan.SeqScan, Table: "company_type", Filter: in},
		{Type: plan.NestedLoop, JoinCond: pj,
			Left:  &plan.Node{Type: plan.SeqScan, Table: "movie_companies"},
			Right: &plan.Node{Type: plan.IndexScan, Table: "title", Index: idx, ParamJoin: pj, Filter: num("kind_id", sqlpred.OpEq, 2)}},
		{Type: plan.Sort, SortKeys: []plan.ColRef{{Table: "title", Column: "id"}, {Table: "title", Column: "kind_id"}},
			Left: &plan.Node{Type: plan.SeqScan, Table: "title"}},
	}
}

// TestEncodeMatchesOracle: over the workload plan mix, under both string
// encoders, the whole EncodedPlan — every vector, predicate tree, level,
// target and node ID — equals the old encoder's.
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
			normalizeEmpty(got)
			normalizeEmpty(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: plan %d (%s): encoding differs from the oracle\n got %+v\nwant %+v",
					name, i, p, got, want)
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

// enumRequest is the request an optimizer's enumeration loop sends: variants
// candidate plans for each query, the same tree with its join operators
// rewritten from the base-3 digits of the variant number, so the candidates of
// one query share every scan and differ above it.
func enumRequest(tb testing.TB, qs []*query.Query, queries, variants int) []*plan.Node {
	tb.Helper()
	joinOps := []plan.NodeType{plan.HashJoin, plan.MergeJoin, plan.NestedLoop}
	var out []*plan.Node
	for _, q := range qs {
		root, err := testPl.Plan(q)
		if err != nil || len(q.Joins) < 2 {
			continue
		}
		if len(out) == queries*variants {
			break
		}
		for v := 0; v < variants; v++ {
			c, digits := root.Clone(), v
			c.Walk(func(n *plan.Node) {
				if n.Type.IsJoin() {
					n.Type = joinOps[digits%len(joinOps)]
					digits /= len(joinOps)
				}
			})
			out = append(out, c)
		}
	}
	if len(out) != queries*variants {
		tb.Fatalf("only %d of %d enumeration plans built", len(out), queries*variants)
	}
	return out
}

// TestEncodeAllMatchesEncode: whatever else a request holds and whatever the
// arena held before, every plan EncodeAll returns is deeply equal to Encode of
// that plan alone — vectors, predicate trees, child indices, levels, the
// cardinality node and the plan's own supervision targets. Requests follow one
// another through a single arena, so a byte a recycled slab failed to zero, or
// a table entry that outlived its request, shows up as a difference.
func TestEncodeAllMatchesEncode(t *testing.T) {
	seven := sevenNodePlan()
	selfJoin := func() *plan.Node {
		scan := func() *plan.Node {
			return &plan.Node{Type: plan.SeqScan, Table: "title",
				Filter: &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 1990}}
		}
		cond := &plan.JoinCond{Left: plan.ColRef{Table: "title", Column: "id"}, Right: plan.ColRef{Table: "title", Column: "episode_of_id"}}
		inner := func() *plan.Node {
			return &plan.Node{Type: plan.HashJoin, JoinCond: cond, Left: scan(), Right: scan()}
		}
		// The same scan four times, the same join twice, inside one plan.
		return &plan.Node{Type: plan.MergeJoin, JoinCond: cond, Left: inner(), Right: inner()}
	}
	requests := map[string][]*plan.Node{
		"scale":   planned(t, workload.Scale(testDB, 11, 40)),
		"jobfull": planned(t, workload.JOBFull(testDB, 11, 40)),
		"enum":    enumRequest(t, workload.Scale(testDB, 13, 80), 6, 8),
		"enumjob": enumRequest(t, workload.JOBFull(testDB, 13, 40), 4, 8),
		"shaped":  shapedPlans(),
		// A subtree repeated inside one plan, then the plan repeated whole.
		"selfjoin": {selfJoin(), selfJoin()},
		// The second plan's cardinality node (the hash join under its sort
		// and aggregate) lies strictly inside a subtree the first plan
		// already encoded.
		"cardnode": {seven.Left, sevenNodePlan()},
		"single":   {sevenNodePlan()},
	}
	// Distinct targets on every node: a copied subtree must carry its own
	// plan's, not those of the plan it was first seen in.
	target := 1.0
	for _, roots := range requests {
		for _, root := range roots {
			root.Walk(func(n *plan.Node) {
				n.TrueRows, n.TrueCost = target, 1000+target
				target++
			})
		}
	}
	order := []string{"enum", "jobfull", "selfjoin", "scale", "cardnode", "enumjob", "single", "shaped", "enum", "single"}
	encoders := map[string]*Encoder{
		"daemon":   NewEncoder(testCat, strembed.ZeroEncoder{}, true),
		"nobitmap": NewEncoder(testCat, strembed.HashEmbedder{DimN: 16}, false),
	}
	for name, e := range encoders {
		var a Arena
		for _, req := range order {
			roots := requests[req]
			got, err := e.EncodeAll(roots, &a)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, req, err)
			}
			if len(got) != len(roots) {
				t.Fatalf("%s/%s: %d plans encoded, want %d", name, req, len(got), len(roots))
			}
			for i, root := range roots {
				want, err := e.Encode(root)
				if err != nil {
					t.Fatalf("%s/%s: plan %d: %v", name, req, i, err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%s/%s: plan %d (%s) differs from Encode\n got %+v\nwant %+v", name, req, i, root, got[i], want)
				}
			}
			total := 0
			for _, root := range roots {
				total += countNodes(root)
			}
			if a.Nodes != total {
				t.Fatalf("%s/%s: arena counted %d nodes, request has %d", name, req, a.Nodes, total)
			}
			switch rate := float64(a.Shared) / float64(a.Nodes); {
			case (req == "enum" || req == "enumjob") && rate < 0.5:
				t.Fatalf("%s/%s: only %d of %d nodes shared; an 8-variant enumeration repeats most of its nodes", name, req, a.Shared, a.Nodes)
			case req == "selfjoin" && a.Shared != 11:
				// Plan 1: the second scan, the second join (3 nodes). Plan 2: all 7.
				t.Fatalf("%s/selfjoin: %d nodes shared, want 11", name, a.Shared)
			case req == "cardnode" && (a.Shared != 6 || got[1].CardNode != 2):
				t.Fatalf("%s/cardnode: %d nodes shared (want 6), cardinality node %d (want 2)", name, a.Shared, got[1].CardNode)
			case req == "single" && a.Shared != 0:
				t.Fatalf("%s/single: %d nodes shared in a plan with no repeated subtree", name, a.Shared)
			}
		}
	}
}

// TestEncodeAllSharedNodes: plans whose subtrees are shared by pointer — the
// request decoder builds a repeated subtree once — encode exactly as their
// unshared copies do. The aggregate's two inputs are one node, and the left
// one is the cardinality node: it is placed where it is reached first, not
// wherever its pointer was seen last.
func TestEncodeAllSharedNodes(t *testing.T) {
	join := sevenNodePlan().Left.Left
	dag := []*plan.Node{
		{Type: plan.Aggregate, Aggs: []plan.AggSpec{{Func: plan.AggCount}}, Left: join, Right: join},
		{Type: plan.HashJoin, JoinCond: join.JoinCond, Left: join.Right, Right: join.Right},
		join,
	}
	var trees []*plan.Node
	for _, root := range dag {
		trees = append(trees, root.Clone())
	}
	e := NewEncoder(testCat, strembed.ZeroEncoder{}, true)
	var sharedArena, treeArena Arena
	got, err := e.EncodeAll(dag, &sharedArena)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.EncodeAll(trees, &treeArena)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].CardNode != 1 {
		t.Fatalf("cardinality node %d, want 1 (the aggregate's left input)", got[0].CardNode)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("plan %d: shared nodes encode differently from their copies\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestEncodeAllDistinguishesTextCollision: the text signature sub-plans were
// once keyed by embedded table names unescaped, so these two differently
// shaped trees signed alike and EncodeAll had to refuse them together. Their
// IDs differ: in one request, in either order or nested in one tree, each
// encodes exactly as Encode encodes it alone.
func TestEncodeAllDistinguishesTextCollision(t *testing.T) {
	scan := func(table string) *plan.Node { return &plan.Node{Type: plan.SeqScan, Table: table} }
	join := func(table string, l, r *plan.Node) *plan.Node {
		return &plan.Node{Type: plan.HashJoin, Table: table, Left: l, Right: r}
	}
	// Three nodes and five, one text signature: the left scan's name spells
	// out the text of a join that the other tree really has.
	inner := oldSignature(join("", scan("p"), scan("q")))
	small := join("", scan("u]("+inner+","+oldSignature(scan("r"))), scan("d"))
	large := join("](0[u", join("", scan("p"), scan("q")), scan("r]],"+strings.TrimSuffix(oldSignature(scan("d")), "]")))
	if oldSignature(small) != oldSignature(large) || countNodes(small) == countNodes(large) {
		t.Fatalf("test trees do not collide:\n%s (%d nodes)\n%s (%d nodes)", oldSignature(small), countNodes(small), oldSignature(large), countNodes(large))
	}
	plantest.CheckIDs(t, small, large)
	e := NewEncoder(testCat, strembed.ZeroEncoder{}, true)
	var a Arena
	for _, roots := range [][]*plan.Node{{small, large}, {large, small}, {join("", small, large), large, small}} {
		got, err := e.EncodeAll(roots, &a)
		if err != nil {
			t.Fatal(err)
		}
		for i, root := range roots {
			if want, err := e.Encode(root); err != nil || !reflect.DeepEqual(got[i], want) {
				t.Fatalf("plan %d of %d (err %v) encodes differently beside the others:\n%s", i, len(roots), err, root)
			}
		}
	}
}

// TestIDPartitionMatchesOldSignature: on corpora whose names need no escaping
// (the workload mixes, the hand-shaped plans, enumeration requests), two
// subtrees share an ID exactly when they shared the old text signature, so a
// request shares just the sub-plans it shared before.
func TestIDPartitionMatchesOldSignature(t *testing.T) {
	enum := enumRequest(t, workload.Scale(testDB, 13, 80), 6, 8)
	plantest.CheckIDs(t, append(shapedPlans(), enum...)...)
	plans := append(planned(t, workload.Scale(testDB, 7, 120), workload.JOBFull(testDB, 7, 120),
		workload.TrainingNumeric(testDB, 7, 120)), enum...)
	byID, bySig := map[plan.ID]string{}, map[string]plan.ID{}
	for _, p := range append(plans, shapedPlans()...) {
		ids := p.AppendIDs(nil)
		i := 0
		p.Walk(func(n *plan.Node) {
			sig, id := oldSignature(n), ids[i]
			i++
			if s, ok := byID[id]; ok && s != sig {
				t.Fatalf("one ID for two text signatures:\n%s\n%s", s, sig)
			}
			if d, ok := bySig[sig]; ok && d != id {
				t.Fatalf("two IDs for one text signature %s", sig)
			}
			byID[id], bySig[sig] = sig, id
		})
	}
	t.Logf("%d plans, %d distinct sub-plans", len(plans), len(byID))
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

// TestEncodeAllocs caps what one Encode may allocate, and holds a warm
// EncodeAll to none beyond the sample bitmap's predicate compilation. The old
// encoder spent about 290 allocations on this plan (a vector each for every
// node and predicate node, a Signature re-walk per node through fmt); the
// sized single pass needs a fixed handful plus the per-atom predicate
// compilation.
func TestEncodeAllocs(t *testing.T) {
	root := sevenNodePlan()
	if countNodes(root) != 7 {
		t.Fatalf("test plan has %d nodes, want 7", countNodes(root))
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
	// A warm EncodeAll, its arena recycled from a request of the same shape,
	// allocates nothing of its own: vectors, nodes, IDs and table entries all
	// reuse the last request's. Only the sample bitmap compiles a matcher
	// for each predicate node of each distinct scan.
	roots := append(enumRequest(t, workload.Scale(testDB, 13, 80), 6, 8), root)
	scans := map[plan.ID]int{}
	for _, r := range roots {
		ids, i := r.AppendIDs(nil), 0
		r.Walk(func(n *plan.Node) {
			if n.Type.IsScan() {
				scans[ids[i]] = predNodes(n)
			}
			i++
		})
	}
	compiled := 0
	for _, k := range scans {
		compiled += k
	}
	for _, enc := range []*Encoder{e, NewEncoder(testCat, strembed.ZeroEncoder{}, false)} {
		var a Arena
		if _, err := enc.EncodeAll(roots, &a); err != nil {
			t.Fatal(err)
		}
		want := 0
		if enc.UseSampleBitmap {
			want = compiled
		}
		if allocs := testing.AllocsPerRun(50, func() { enc.EncodeAll(roots, &a) }); allocs > float64(want) {
			t.Fatalf("a warm EncodeAll of %d plans (sample bitmap %v) allocates %.0f times, want at most %d",
				len(roots), enc.UseSampleBitmap, allocs, want)
		}
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
