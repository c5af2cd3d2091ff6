package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	errs := []float64{1, 2, 3, 4, 100}
	s := Summarize(errs)
	if s.Median != 3 {
		t.Errorf("median = %g", s.Median)
	}
	if s.Max != 100 {
		t.Errorf("max = %g", s.Max)
	}
	if math.Abs(s.Mean-22) > 1e-9 {
		t.Errorf("mean = %g", s.Mean)
	}
	if s.N != 5 {
		t.Errorf("n = %d", s.N)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Max != 0 || s.N != 0 {
		t.Fatal("empty summary must be zero")
	}
}

func TestPercentileOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 1 + rng.Float64()*1000
		}
		s := Summarize(vals)
		return s.Median <= s.P90+1e-12 && s.P90 <= s.P95+1e-12 &&
			s.P95 <= s.P99+1e-12 && s.P99 <= s.Max+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileExact(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if p := Percentile(sorted, 0); p != 10 {
		t.Errorf("p0 = %g", p)
	}
	if p := Percentile(sorted, 100); p != 40 {
		t.Errorf("p100 = %g", p)
	}
	if p := Percentile(sorted, 50); p != 25 {
		t.Errorf("p50 = %g", p)
	}
}

func TestBoxStats(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 1000}
	b := Box(vals)
	if b.P25 >= b.P50 || b.P50 >= b.P75 {
		t.Fatalf("quartiles out of order: %+v", b)
	}
	if b.WhiskHi > b.Hi || b.WhiskLo < b.Lo {
		t.Fatalf("whiskers outside data range: %+v", b)
	}
	// The outlier is beyond the upper whisker.
	if b.WhiskHi >= 1000 {
		t.Fatalf("whisker should exclude the outlier: %+v", b)
	}
}

func TestRowFormatting(t *testing.T) {
	s := Summarize([]float64{1.5, 2.5, 3.5})
	row := s.Row("PGCard")
	if !strings.Contains(row, "PGCard") {
		t.Fatal("row missing method name")
	}
	h := Header("JOB-light")
	if !strings.Contains(h, "median") || !strings.Contains(h, "max") {
		t.Fatal("header missing columns")
	}
	if len(strings.Split(strings.TrimSpace(row), " ")) < 7 {
		t.Fatal("row has too few columns")
	}
}

func TestBoxRender(t *testing.T) {
	b := Box([]float64{1, 2, 3, 10, 100})
	out := b.Render("method", 40)
	if !strings.Contains(out, "method") || !strings.Contains(out, "|") {
		t.Fatalf("render = %q", out)
	}
	empty := Box(nil).Render("none", 40)
	if !strings.Contains(empty, "no data") {
		t.Fatal("empty render should say no data")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean = %g", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}
