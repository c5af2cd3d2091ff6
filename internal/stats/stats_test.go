package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"costest/internal/dataset"
	"costest/internal/sqlpred"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.03})
	testCat = Collect(testDB, Options{Buckets: 40, SampleSize: 64, MaxMCVs: 20, Seed: 1})
)

func TestCollectCoversAllColumns(t *testing.T) {
	for _, tab := range testDB.Schema.Tables {
		ts := testCat.Table(tab.Name)
		if ts == nil {
			t.Fatalf("no stats for %s", tab.Name)
		}
		if ts.RowCount != testDB.Table(tab.Name).NumRows {
			t.Fatalf("%s row count mismatch", tab.Name)
		}
		for _, c := range tab.Columns {
			if ts.Cols[c.Name] == nil {
				t.Fatalf("no stats for %s.%s", tab.Name, c.Name)
			}
		}
	}
}

func TestHistogramSelLessMonotone(t *testing.T) {
	cs := testCat.Column("title", "production_year")
	h := cs.NumHist
	prev := -1.0
	for v := cs.Min; v <= cs.Max; v += (cs.Max - cs.Min) / 50 {
		s := h.SelLess(v)
		if s < prev-1e-12 {
			t.Fatalf("SelLess not monotone at %g: %g < %g", v, s, prev)
		}
		if s < 0 || s > 1 {
			t.Fatalf("SelLess out of range: %g", s)
		}
		prev = s
	}
	if h.SelLess(cs.Min-1) != 0 || h.SelLess(cs.Max+1) != 1 {
		t.Fatal("SelLess boundary behaviour wrong")
	}
}

// Property: equi-depth bounds are sorted and cover the data range.
func TestEquiDepthBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		sort.Float64s(vals)
		b := equiDepthBounds(vals, 10)
		if b[0] != vals[0] || b[len(b)-1] != vals[n-1] {
			return false
		}
		return sort.Float64sAreSorted(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Histogram range estimates must be close to truth on the (uncorrelated)
// single-column case — histograms are good at exactly this.
func TestRangeEstimateAccuracy(t *testing.T) {
	a := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2000}
	est := testCat.AtomSelectivity(a)
	truth, err := testCat.TrueSelectivity("title", a)
	if err != nil {
		t.Fatal(err)
	}
	if truth == 0 {
		t.Skip("no rows match at this scale")
	}
	q := math.Max(est, truth) / math.Min(math.Max(est, 1e-6), math.Max(truth, 1e-6))
	if q > 1.6 {
		t.Errorf("single-column range estimate too far off: est=%.4f truth=%.4f q=%.2f", est, truth, q)
	}
}

func TestEqEstimateViaMCV(t *testing.T) {
	// company_type_id has 4 values; all should be MCVs with exact freqs.
	a := &sqlpred.Atom{Table: "movie_companies", Column: "company_type_id", Op: sqlpred.OpEq, NumVal: 1}
	est := testCat.AtomSelectivity(a)
	truth, _ := testCat.TrueSelectivity("movie_companies", a)
	if math.Abs(est-truth) > 0.01 {
		t.Errorf("MCV equality estimate: est=%.4f truth=%.4f", est, truth)
	}
}

func TestStringEqEstimate(t *testing.T) {
	a := &sqlpred.Atom{Table: "company_type", Column: "kind", Op: sqlpred.OpEq,
		StrVal: "production companies", IsStr: true}
	est := testCat.AtomSelectivity(a)
	if est <= 0 || est > 1 {
		t.Fatalf("string eq selectivity out of range: %g", est)
	}
	truth, _ := testCat.TrueSelectivity("company_type", a)
	if math.Abs(est-truth) > 0.3 {
		t.Errorf("tiny-table string eq: est=%.3f truth=%.3f", est, truth)
	}
}

func TestLikeSelectivityViaMCVs(t *testing.T) {
	// "(co-production)" is a frequent exact note value, so the MCV pass
	// should make LIKE '%(co-production)%' selectivity non-trivial.
	a := &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpLike,
		StrVal: "%(co-production)%", IsStr: true}
	est := testCat.AtomSelectivity(a)
	truth, _ := testCat.TrueSelectivity("movie_companies", a)
	if truth == 0 {
		t.Skip("no co-production notes at this scale")
	}
	if est <= 0 {
		t.Errorf("LIKE estimate should be positive, got %g (truth %.4f)", est, truth)
	}
}

func TestNotLikeComplement(t *testing.T) {
	like := &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpLike, StrVal: "%(TV)%", IsStr: true}
	notLike := &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpNotLike, StrVal: "%(TV)%", IsStr: true}
	a, b := testCat.AtomSelectivity(like), testCat.AtomSelectivity(notLike)
	if math.Abs(a+b-1) > 1e-9 {
		t.Errorf("LIKE + NOT LIKE = %g, want 1", a+b)
	}
}

func TestCompoundIndependence(t *testing.T) {
	a := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2000}
	b := &sqlpred.Atom{Table: "title", Column: "kind_id", Op: sqlpred.OpEq, NumVal: 1}
	sa, sb := testCat.AtomSelectivity(a), testCat.AtomSelectivity(b)
	and := testCat.PredSelectivity(sqlpred.AndAll(a, b))
	or := testCat.PredSelectivity(sqlpred.OrAll(a, b))
	if math.Abs(and-sa*sb) > 1e-9 {
		t.Errorf("AND independence: %g vs %g", and, sa*sb)
	}
	if math.Abs(or-(sa+sb-sa*sb)) > 1e-9 {
		t.Errorf("OR inclusion-exclusion: %g vs %g", or, sa+sb-sa*sb)
	}
	if testCat.PredSelectivity(nil) != 1 {
		t.Error("nil predicate selectivity must be 1")
	}
}

// The planted correlation must break the independence assumption: the AND of
// year>=2000 and note=(co-production) is truly far more frequent than the
// product of marginals.
func TestIndependenceAssumptionBreaks(t *testing.T) {
	mc := testDB.Table("movie_companies")
	title := testDB.Table("title")
	years := title.IntColumn("production_year")
	notes := mc.StrColumn("note")
	movieIDs := mc.IntColumn("movie_id")
	co, coNew := 0, 0
	nNew := 0
	for i := range notes {
		isNew := years[title.PKRow(movieIDs[i])] >= 2010
		if isNew {
			nNew++
		}
		if notes[i] == "(co-production)" {
			co++
			if isNew {
				coNew++
			}
		}
	}
	if co == 0 || nNew == 0 {
		t.Skip("scale too small")
	}
	total := float64(mc.NumRows)
	joint := float64(coNew) / total
	indep := (float64(co) / total) * (float64(nNew) / total)
	if joint < 1.5*indep {
		t.Errorf("correlation too weak for the experiment: joint=%.5f indep=%.5f", joint, indep)
	}
}

func TestSampleBitmap(t *testing.T) {
	p := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 1900}
	if testCat.SampleSize != 64 {
		t.Fatalf("catalog sample size %d, want 64", testCat.SampleSize)
	}
	bm := make([]float64, testCat.SampleSize)
	if err := testCat.SampleBitmap(bm, "title", p); err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, b := range bm {
		if b != 0 && b != 1 {
			t.Fatalf("bitmap value %g not 0/1", b)
		}
		if b == 1 {
			ones++
		}
	}
	if ones == 0 {
		t.Error("broad predicate should match some sample rows")
	}
	// Bitmap fraction should roughly track true selectivity.
	truth, _ := testCat.TrueSelectivity("title", p)
	frac := float64(ones) / 64
	if math.Abs(frac-truth) > 0.35 {
		t.Errorf("bitmap fraction %.2f far from truth %.2f", frac, truth)
	}
}

func TestSampleBitmapUnknownTable(t *testing.T) {
	bm := make([]float64, testCat.SampleSize)
	if err := testCat.SampleBitmap(bm, "nope", nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range bm {
		if b != 0 {
			t.Fatal("unknown table bitmap must be all zeros")
		}
	}
}

func TestReservoirProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := reservoir(1000, 50, rng)
	if len(s) != 50 {
		t.Fatalf("sample size %d, want 50", len(s))
	}
	if !sort.IntsAreSorted(s) {
		t.Fatal("sample must be sorted")
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 1000 {
			t.Fatalf("sample index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample index %d", v)
		}
		seen[v] = true
	}
	// Small population: identity.
	s2 := reservoir(10, 50, rng)
	if len(s2) != 10 || s2[0] != 0 || s2[9] != 9 {
		t.Fatalf("small-population sample = %v", s2)
	}
}

func TestNormalizeNumeric(t *testing.T) {
	v := testCat.NormalizeNumeric("title", "production_year", 2100)
	if v != 1 {
		t.Errorf("above-max normalize = %g, want 1", v)
	}
	v = testCat.NormalizeNumeric("title", "production_year", 1700)
	if v != 0 {
		t.Errorf("below-min normalize = %g, want 0", v)
	}
	v = testCat.NormalizeNumeric("nope", "nope", 5)
	if v != 0.5 {
		t.Errorf("unknown column normalize = %g, want 0.5", v)
	}
}

func TestSelectivityClamped(t *testing.T) {
	f := func(v float64) bool {
		a := &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpLt, NumVal: v}
		s := testCat.AtomSelectivity(a)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
