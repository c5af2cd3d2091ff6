package workload

import (
	"testing"

	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/schema"
	"costest/internal/sqlpred"
	"costest/internal/stats"
)

type schemaColumn = schema.Column

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	testEng = exec.NewEngine(testDB)
	testPl  = planner.New(pg.New(testCat), testDB.Schema)
)

func TestGenerateValidQueries(t *testing.T) {
	g := NewGenerator(testDB, 3)
	qs := g.Generate(Spec{MinJoins: 0, MaxJoins: 3, MaxAtomsPerTable: 2, StringProb: 0.3, OrProb: 0.2}, 50)
	if len(qs) != 50 {
		t.Fatalf("generated %d queries, want 50", len(qs))
	}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v\n%s", i, err, q.SQL())
		}
		if !testDB.Schema.ConnectedSubset(q.Tables) {
			t.Fatalf("query %d tables not connected: %v", i, q.Tables)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := NewGenerator(testDB, 42).Generate(Spec{MaxJoins: 2, MaxAtomsPerTable: 2}, 10)
	b := NewGenerator(testDB, 42).Generate(Spec{MaxJoins: 2, MaxAtomsPerTable: 2}, 10)
	for i := range a {
		if a[i].SQL() != b[i].SQL() {
			t.Fatalf("nondeterministic generation at %d:\n%s\n%s", i, a[i].SQL(), b[i].SQL())
		}
	}
}

func TestJoinCountsWithinSpec(t *testing.T) {
	g := NewGenerator(testDB, 5)
	qs := g.Generate(Spec{MinJoins: 1, MaxJoins: 3, MaxAtomsPerTable: 1}, 30)
	for _, q := range qs {
		if len(q.Joins) < 1 || len(q.Joins) > 3 {
			t.Fatalf("join count %d outside [1,3]", len(q.Joins))
		}
		if len(q.Tables) != len(q.Joins)+1 {
			t.Fatalf("tables %d != joins+1 (%d)", len(q.Tables), len(q.Joins)+1)
		}
	}
}

func TestNumericOnlySpec(t *testing.T) {
	qs := Synthetic(testDB, 7, 30)
	for _, q := range qs {
		if len(q.Joins) > 2 {
			t.Fatalf("synthetic query with %d joins", len(q.Joins))
		}
		for _, f := range q.Filters {
			sqlpred.Walk(f, func(a *sqlpred.Atom) {
				if a.IsStr {
					t.Fatalf("string atom in numeric workload: %s", a)
				}
			})
		}
	}
}

func TestJOBLightShape(t *testing.T) {
	qs := JOBLight(testDB, 11, 20)
	if len(qs) != 20 {
		t.Fatalf("%d queries", len(qs))
	}
	for _, q := range qs {
		if !containsTable(q, "title") {
			t.Fatalf("JOB-light query without title: %v", q.Tables)
		}
		if len(q.Joins) < 1 || len(q.Joins) > 4 {
			t.Fatalf("JOB-light join count %d", len(q.Joins))
		}
		for _, f := range q.Filters {
			sqlpred.Walk(f, func(a *sqlpred.Atom) {
				if a.IsStr {
					t.Fatal("JOB-light must be numeric only")
				}
			})
		}
	}
}

func TestJOBFullHasStrings(t *testing.T) {
	qs := JOBFull(testDB, 13, 15)
	for _, q := range qs {
		if !hasStringAtom(q) {
			t.Fatalf("JOB query without string atom: %s", q.SQL())
		}
		if len(q.Joins) < 2 {
			t.Fatalf("JOB query with %d joins", len(q.Joins))
		}
	}
}

func TestSingleTableStringsShape(t *testing.T) {
	qs := SingleTableStrings(testDB, 17, 20)
	for _, q := range qs {
		if len(q.Tables) != 1 {
			t.Fatalf("single-table query over %v", q.Tables)
		}
		if q.Filters[q.Tables[0]] == nil {
			t.Fatal("single-table query without filter")
		}
	}
}

func TestLikePatternsUseDataSubstrings(t *testing.T) {
	g := NewGenerator(testDB, 19)
	var noteCol *schemaColumn
	for _, c := range testDB.Schema.PredicableColumns("movie_companies") {
		if c.Name == "note" {
			cc := c
			noteCol = &cc
		}
	}
	if noteCol == nil {
		t.Fatal("note column missing")
	}
	found := 0
	for i := 0; i < 200 && found == 0; i++ {
		a := g.randomStringAtom("movie_companies", *noteCol)
		if a != nil && (a.Op == sqlpred.OpLike || a.Op == sqlpred.OpNotLike) {
			found++
			if len(a.StrVal) < 3 {
				t.Fatalf("degenerate pattern %q", a.StrVal)
			}
		}
	}
	if found == 0 {
		t.Fatal("no LIKE atoms generated in 200 tries")
	}
}

func TestParenTokens(t *testing.T) {
	toks := parenTokens("(2006) (USA) (TV)")
	if len(toks) != 3 || toks[0] != "(2006)" || toks[2] != "(TV)" {
		t.Fatalf("parenTokens = %v", toks)
	}
	if parenTokens("no parens") != nil {
		t.Fatal("expected nil for paren-free value")
	}
}

func TestLabeler(t *testing.T) {
	qs := Synthetic(testDB, 23, 20)
	l := &Labeler{Planner: testPl, Engine: testEng, Parallelism: 4}
	samples := l.Label(qs)
	if len(samples) < 15 {
		t.Fatalf("only %d/20 queries labeled", len(samples))
	}
	for _, s := range samples {
		if s.Cost <= 0 {
			t.Fatalf("non-positive cost %g for %s", s.Cost, s.Query.SQL())
		}
		if s.Card < 0 {
			t.Fatalf("negative card for %s", s.Query.SQL())
		}
		if s.Plan.TrueCost != s.Cost {
			t.Fatal("plan annotation inconsistent with sample cost")
		}
	}
}

func TestLabelerDeterministic(t *testing.T) {
	qs := Synthetic(testDB, 29, 10)
	l := &Labeler{Planner: testPl, Engine: testEng}
	a := l.Label(qs)
	b := l.Label(qs)
	if len(a) != len(b) {
		t.Fatal("labeling count nondeterministic")
	}
	for i := range a {
		if a[i].Card != b[i].Card || a[i].Cost != b[i].Cost {
			t.Fatalf("labeling nondeterministic at %d", i)
		}
	}
}

func TestSplit(t *testing.T) {
	samples := make([]*Labeled, 10)
	for i := range samples {
		samples[i] = &Labeled{}
	}
	tr, va := Split(samples, 0.9)
	if len(tr) != 9 || len(va) != 1 {
		t.Fatalf("split = %d/%d", len(tr), len(va))
	}
	tr, va = Split(samples, 1.5)
	if len(tr) != 10 || len(va) != 0 {
		t.Fatal("overflow fraction must clamp")
	}
}
