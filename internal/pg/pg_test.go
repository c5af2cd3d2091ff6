package pg

import (
	"math"
	"testing"

	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/plan"
	"costest/internal/sqlpred"
	"costest/internal/stats"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	testEng = exec.NewEngine(testDB)
)

func scan(table string, f sqlpred.Pred) *plan.Node {
	return &plan.Node{Type: plan.SeqScan, Table: table, Filter: f}
}

var mcTitle = plan.JoinCond{
	Left:  plan.ColRef{Table: "movie_companies", Column: "movie_id"},
	Right: plan.ColRef{Table: "title", Column: "id"},
}

func TestSeqScanCardEstimate(t *testing.T) {
	est := New(testCat)
	f := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2000}
	n := scan("title", f)
	card := est.EstimateCard(n)
	if _, err := testEng.Run(n); err != nil {
		t.Fatal(err)
	}
	q := math.Max(card, n.TrueRows) / math.Min(math.Max(card, 1), math.Max(n.TrueRows, 1))
	if q > 2 {
		t.Errorf("single-table range: est=%.0f true=%.0f q=%.1f", card, n.TrueRows, q)
	}
}

func TestFKJoinCardEstimate(t *testing.T) {
	est := New(testCat)
	n := &plan.Node{Type: plan.HashJoin, JoinCond: &mcTitle,
		Left: scan("movie_companies", nil), Right: scan("title", nil)}
	card := est.EstimateCard(n)
	if _, err := testEng.Run(n); err != nil {
		t.Fatal(err)
	}
	// Unfiltered PK-FK join: the NDV formula should be nearly exact.
	q := math.Max(card, n.TrueRows) / math.Min(card, n.TrueRows)
	if q > 1.5 {
		t.Errorf("FK join: est=%.0f true=%.0f q=%.2f", card, n.TrueRows, q)
	}
}

// The headline effect the paper exploits: PG underestimates correlated
// multi-predicate + join cardinalities badly.
func TestCorrelatedEstimateIsWrong(t *testing.T) {
	est := New(testCat)
	yearF := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGe, NumVal: 2010}
	noteF := &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpEq,
		StrVal: "(co-production)", IsStr: true}
	n := &plan.Node{Type: plan.HashJoin, JoinCond: &mcTitle,
		Left: scan("movie_companies", noteF), Right: scan("title", yearF)}
	cardEst := est.EstimateCard(n)
	if _, err := testEng.Run(n); err != nil {
		t.Fatal(err)
	}
	if n.TrueRows == 0 {
		t.Skip("no matching rows at this scale")
	}
	if cardEst >= n.TrueRows {
		t.Logf("note: PG did not underestimate here (est=%.0f true=%.0f)", cardEst, n.TrueRows)
	}
	q := math.Max(cardEst, n.TrueRows) / math.Min(math.Max(cardEst, 1), n.TrueRows)
	if q < 1.3 {
		t.Errorf("correlated join estimate suspiciously good: q=%.2f (est=%.0f true=%.0f)",
			q, cardEst, n.TrueRows)
	}
}

func TestAnnotateFillsEveryNode(t *testing.T) {
	est := New(testCat)
	n := &plan.Node{Type: plan.Aggregate,
		Aggs: []plan.AggSpec{{Func: plan.AggCount}},
		Left: &plan.Node{Type: plan.HashJoin, JoinCond: &mcTitle,
			Left: scan("movie_companies", nil), Right: scan("title", nil)},
	}
	est.Annotate(n)
	n.Walk(func(m *plan.Node) {
		if m.EstRows < 1 {
			t.Errorf("node %v EstRows = %g", m.Type, m.EstRows)
		}
		if m.EstCost <= 0 {
			t.Errorf("node %v EstCost = %g", m.Type, m.EstCost)
		}
	})
	if n.EstRows != 1 {
		t.Errorf("aggregate EstRows = %g, want 1", n.EstRows)
	}
	if n.EstCost <= n.Left.EstCost {
		t.Error("cumulative cost must grow upward")
	}
}

func TestIndexNLEstimate(t *testing.T) {
	est := New(testCat)
	inner := &plan.Node{Type: plan.IndexScan, Table: "title", Index: "title_pkey", ParamJoin: &mcTitle}
	n := &plan.Node{Type: plan.NestedLoop, JoinCond: &mcTitle,
		Left: scan("movie_companies", nil), Right: inner}
	card := est.EstimateCard(n)
	if _, err := testEng.Run(n); err != nil {
		t.Fatal(err)
	}
	q := math.Max(card, n.TrueRows) / math.Min(math.Max(card, 1), math.Max(n.TrueRows, 1))
	if q > 2 {
		t.Errorf("index NL: est=%.0f true=%.0f", card, n.TrueRows)
	}
	if inner.EstRows < 1 || inner.EstCost <= 0 {
		t.Error("inner parameterized scan not annotated")
	}
}

func TestCalibrate(t *testing.T) {
	est := New(testCat)
	var plans []*plan.Node
	for _, y := range []float64{1990, 2000, 2010} {
		f := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: y}
		n := &plan.Node{Type: plan.HashJoin, JoinCond: &mcTitle,
			Left: scan("movie_companies", nil), Right: scan("title", f)}
		if _, err := testEng.Run(n); err != nil {
			t.Fatal(err)
		}
		plans = append(plans, n)
	}
	cal := est.Calibrated(plans)
	if cal.UnitMS <= 0 {
		t.Fatalf("UnitMS = %g", cal.UnitMS)
	}
	if est.UnitMS != 1 {
		t.Fatalf("calibration changed the estimator it started from: UnitMS %g", est.UnitMS)
	}
	// Under the calibrated unit the geometric mean ratio must be ~1.
	var sumLog float64
	for _, p := range plans {
		sumLog += math.Log(p.TrueCost / cal.EstimateCost(p))
	}
	if math.Abs(sumLog/float64(len(plans))) > 0.01 {
		t.Errorf("calibration off: mean log ratio %g", sumLog/3)
	}
}

func TestCalibrateEmptySet(t *testing.T) {
	est := New(testCat)
	est.UnitMS = 2.5
	if cal := est.Calibrated(nil); cal.UnitMS != 2.5 || est.UnitMS != 2.5 {
		t.Errorf("calibration with no plans must keep UnitMS 2.5: got %g, estimator left at %g", cal.UnitMS, est.UnitMS)
	}
}

func TestEstimatesPositiveAndFinite(t *testing.T) {
	est := New(testCat)
	n := &plan.Node{Type: plan.Sort,
		SortKeys: []plan.ColRef{{Table: "title", Column: "production_year"}},
		Left:     scan("title", nil)}
	est.Annotate(n)
	if math.IsNaN(n.EstCost) || math.IsInf(n.EstCost, 0) || n.EstCost <= 0 {
		t.Fatalf("sort EstCost = %g", n.EstCost)
	}
	if n.EstRows != n.Left.EstRows {
		t.Error("sort must preserve estimated rows")
	}
}
