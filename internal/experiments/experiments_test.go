package experiments

import (
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"costest/internal/query"
	"costest/internal/sqlpred"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// microConfig keeps the end-to-end suites fast enough for unit tests.
func microConfig() Config {
	c := Small()
	c.Scale = 0.02
	c.TrainNumeric = 150
	c.TrainStrings = 120
	c.SingleTable = 150
	c.TestSynthetic = 40
	c.TestScale = 30
	c.TestJOBLight = 15
	c.TestJOB = 20
	c.Epochs = 5
	c.Hidden = 16
	c.Embed = 8
	c.EstHidden = 8
	c.StrDim = 12
	c.MSCNWidth = 16
	c.SampleSize = 32
	return c
}

func TestNumericSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	env := NewEnv(microConfig())
	res, err := env.RunNumeric()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table7) != 3 || len(res.Table8) != 3 {
		t.Fatalf("tables: %d card workloads, %d cost workloads", len(res.Table7), len(res.Table8))
	}
	for _, wt := range res.Table7 {
		if len(wt.Methods) != 6 {
			t.Fatalf("%s: %d card methods", wt.Workload, len(wt.Methods))
		}
		for _, m := range wt.Methods {
			if m.Summary.N == 0 {
				t.Fatalf("%s/%s: no errors recorded", wt.Workload, m.Name)
			}
			if m.Summary.Mean < 1 {
				t.Fatalf("%s/%s: mean q-error %g < 1", wt.Workload, m.Name, m.Summary.Mean)
			}
		}
	}
	// Shape check (the paper's headline): the learned estimators beat the
	// PG baseline on cardinality for the joins-heavy workloads, by mean.
	for _, wt := range res.Table7 {
		pg := wt.Methods[0].Summary.Mean
		tlstm := wt.Methods[len(wt.Methods)-1].Summary.Mean
		if tlstm > pg {
			t.Logf("note: %s TLSTMCard mean %.1f vs PG %.1f (micro config, shape may be noisy)",
				wt.Workload, tlstm, pg)
		}
	}
	if len(res.Figure7a) != 4 || len(res.Figure7b) != 2 {
		t.Fatalf("figure 7 curves: %d/%d", len(res.Figure7a), len(res.Figure7b))
	}
	for _, c := range res.Figure7a {
		if len(c.Values) != microConfig().Epochs {
			t.Fatalf("curve %s has %d points", c.Name, len(c.Values))
		}
	}
	out := ReportNumeric(res)
	for _, want := range []string{"Table 7", "Table 8", "JOB-light", "PGCard", "TLSTMMCost"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	checkGoldenReport(t, out, 0x6f0e6a6ae95dd16d)
}

// checkGoldenReport pins a rendered report byte for byte through its FNV-64a
// hash: a change to the evaluation that moves no number keeps the hash.
func checkGoldenReport(t *testing.T, report string, want uint64) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(report))
	if h.Sum64() != want {
		t.Errorf("report hashes to %#x, want %#x:\n%s", h.Sum64(), want, report)
	}
}

func TestStringSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	env := NewEnv(microConfig())
	res, err := env.RunStrings()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table10) != 5 || len(res.Table11) != 5 {
		t.Fatalf("tables 10/11 rows: %d/%d", len(res.Table10), len(res.Table11))
	}
	for _, m := range append(res.Table10, res.Table11...) {
		if m.Summary.N == 0 {
			t.Fatalf("%s: no errors", m.Name)
		}
	}
	if len(res.Figure8) != 4 {
		t.Fatalf("figure 8 curves: %d", len(res.Figure8))
	}
	if len(res.Figure9) != 3 {
		t.Fatalf("figure 9 methods: %d", len(res.Figure9))
	}
	if len(res.Figure10) != 3 {
		t.Fatalf("figure 10 methods: %d", len(res.Figure10))
	}
	if len(res.Table12) != 7 {
		t.Fatalf("table 12 rows: %d", len(res.Table12))
	}
	for _, row := range res.Table12 {
		if row.PerMsQ <= 0 {
			t.Fatalf("%s: non-positive timing", row.Method)
		}
	}
	out := ReportStrings(res)
	for _, want := range []string{"Table 10", "Table 11", "Figure 9", "Figure 10", "Table 12", "TPoolEmbR"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	res.Table12 = nil // timings
	checkGoldenReport(t, ReportStrings(res), 0x3fc135d0b99fab67)
}

// TestStringSuiteIgnoresNumericSuite: the string suite's tables do not
// depend on whether the numeric suite ran first in the same environment.
// Calibrating the PostgreSQL baseline once rewrote the cost unit of the
// estimator the planner and the labeler share, so the string suite planned
// and labeled under a different unit after the numeric suite than alone.
func TestStringSuiteIgnoresNumericSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	// The smallest numeric suite, at the small preset's data; 200 string
	// training queries are enough for the old shared unit to flip a plan.
	c := microConfig()
	c.Scale, c.SampleSize, c.Buckets = 0.04, 64, 40
	c.TrainNumeric, c.TestSynthetic, c.TestScale, c.TestJOBLight = 40, 10, 10, 10
	c.TrainStrings, c.SingleTable, c.TestJOB = 200, 60, 20
	c.Epochs = 1
	tables := func(res *StringResults) *StringResults {
		res.Table12 = nil // timings
		return res
	}

	alone, err := NewEnv(c).RunStrings()
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(c)
	if _, err := env.RunNumeric(); err != nil {
		t.Fatal(err)
	}
	after, err := env.RunStrings()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tables(alone), tables(after)) {
		t.Errorf("string tables after the numeric suite differ from the string suite alone:\n%s\nvs alone\n%s",
			ReportStrings(after), ReportStrings(alone))
	}
}

func TestCollectWorkloadStrings(t *testing.T) {
	q := &query.Query{
		Tables: []string{"movie_companies"},
		Filters: map[string]sqlpred.Pred{
			"movie_companies": sqlpred.AndAll(
				&sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpLike,
					StrVal: "%(co-production)%", IsStr: true},
				&sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpEq,
					StrVal: "(presents)", IsStr: true},
				&sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpIn,
					InVals: []string{"a", "b"}, IsStr: true},
				&sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpLike,
					StrVal: "Din%", IsStr: true},
			),
		},
	}
	ws := CollectWorkloadStrings([]*query.Query{q})
	if len(ws) != 5 {
		t.Fatalf("collected %d strings, want 5", len(ws))
	}
	kinds := map[string]int{}
	for _, w := range ws {
		switch w.S {
		case "(co-production)":
			kinds["contains"] = int(w.Kind)
		case "Din":
			kinds["prefix"] = int(w.Kind)
		}
	}
	if kinds["contains"] != 3 { // MatchContains
		t.Errorf("co-production kind = %d", kinds["contains"])
	}
	if kinds["prefix"] != 1 { // MatchPrefix
		t.Errorf("Din kind = %d", kinds["prefix"])
	}

	// One literal used both as an equality and as a prefix pattern is two
	// workload strings: the dedupe key includes the match kind.
	q2 := &query.Query{
		Tables: []string{"title"},
		Filters: map[string]sqlpred.Pred{
			"title": &sqlpred.Bool{Kind: sqlpred.Or,
				Left: &sqlpred.Atom{Table: "title", Column: "title", Op: sqlpred.OpEq,
					StrVal: "Dark", IsStr: true},
				Right: &sqlpred.Atom{Table: "title", Column: "title", Op: sqlpred.OpLike,
					StrVal: "Dark%", IsStr: true},
			},
		},
	}
	ws = CollectWorkloadStrings([]*query.Query{q2})
	if len(ws) != 2 {
		t.Fatalf("same literal under = and LIKE: collected %v, want two entries", ws)
	}
	got := map[strembed.MatchKind]bool{}
	for _, w := range ws {
		if w.S != "Dark" {
			t.Fatalf("collected %q, want %q", w.S, "Dark")
		}
		got[w.Kind] = true
	}
	if !got[strembed.MatchExact] || !got[strembed.MatchPrefix] {
		t.Fatalf("match kinds %v, want exact and prefix", got)
	}
	_ = workload.JOBFullSize
}
