// Package stats collects PostgreSQL-ANALYZE-style statistics over the
// in-memory database: equi-depth histograms, most-common-value lists,
// distinct counts and per-table reservoir samples. The PG baseline estimator
// derives selectivities from them, and the feature encoder derives sample
// bitmaps (Section 4.1) and numeric-operand normalization from them.
package stats

import (
	"math/rand"
	"sort"

	"costest/internal/dataset"
	"costest/internal/schema"
	"costest/internal/sqlpred"
)

// DefaultBuckets is the histogram resolution (PostgreSQL's
// default_statistics_target is 100).
const DefaultBuckets = 100

// DefaultSampleSize matches the paper's sample-bitmap length of 1000
// (Section 6.2); tests and benches shrink it.
const DefaultSampleSize = 1000

// MCV is a most-common-value entry with its frequency (fraction of rows).
type MCV struct {
	Num  float64
	Str  string
	Freq float64
}

// NumHistogram is an equi-depth histogram over a numeric column. Bounds has
// B+1 entries; each bucket holds ~1/B of the non-MCV rows.
type NumHistogram struct {
	Bounds []float64
}

// SelLess estimates P(col < v) over the histogram's population.
func (h *NumHistogram) SelLess(v float64) float64 {
	b := h.Bounds
	if len(b) < 2 {
		return 0.5
	}
	if v <= b[0] {
		return 0
	}
	if v >= b[len(b)-1] {
		return 1
	}
	// Find bucket i with b[i] <= v < b[i+1].
	i := sort.SearchFloat64s(b, v)
	if i > 0 && (i >= len(b) || b[i] != v) {
		i--
	}
	if i >= len(b)-1 {
		i = len(b) - 2
	}
	frac := 0.5
	if b[i+1] > b[i] {
		frac = (v - b[i]) / (b[i+1] - b[i])
	}
	nb := float64(len(b) - 1)
	return (float64(i) + frac) / nb
}

// StrHistogram is an equi-depth histogram over a string column in
// lexicographic order.
type StrHistogram struct {
	Bounds []string
}

// SelLess estimates P(col < v) lexicographically.
func (h *StrHistogram) SelLess(v string) float64 {
	b := h.Bounds
	if len(b) < 2 {
		return 0.5
	}
	if v <= b[0] {
		return 0
	}
	if v > b[len(b)-1] {
		return 1
	}
	i := sort.SearchStrings(b, v)
	if i > 0 {
		i--
	}
	if i >= len(b)-1 {
		i = len(b) - 2
	}
	nb := float64(len(b) - 1)
	return (float64(i) + 0.5) / nb
}

// ColumnStats holds statistics for a single column.
type ColumnStats struct {
	Table, Column string
	Type          schema.ColType
	RowCount      int
	NDV           int
	MCVs          []MCV
	MCVFreqTotal  float64
	// Numeric columns:
	Min, Max float64
	NumHist  *NumHistogram
	// String columns:
	StrHist *StrHistogram
}

// TableStats holds statistics and the reservoir sample for one table.
type TableStats struct {
	Table    string
	RowCount int
	Cols     map[string]*ColumnStats
	// Sample holds row indices of the fixed-size uniform sample used for
	// sample-bitmap features and for the paper's sample-based baselines.
	Sample []int
}

// Catalog is the statistics catalog of a database.
type Catalog struct {
	DB         *dataset.DB
	Tables     map[string]*TableStats
	SampleSize int
}

// Options configures statistics collection.
type Options struct {
	Buckets    int
	SampleSize int
	MaxMCVs    int
	Seed       int64
}

// Collect gathers statistics for every table and column of db.
func Collect(db *dataset.DB, opt Options) *Catalog {
	if opt.Buckets <= 0 {
		opt.Buckets = DefaultBuckets
	}
	if opt.SampleSize <= 0 {
		opt.SampleSize = DefaultSampleSize
	}
	if opt.MaxMCVs <= 0 {
		opt.MaxMCVs = 25
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	cat := &Catalog{DB: db, Tables: make(map[string]*TableStats, len(db.Tables)), SampleSize: opt.SampleSize}
	for _, tab := range db.Schema.Tables {
		data := db.Table(tab.Name)
		ts := &TableStats{
			Table:    tab.Name,
			RowCount: data.NumRows,
			Cols:     make(map[string]*ColumnStats, len(tab.Columns)),
			Sample:   reservoir(data.NumRows, opt.SampleSize, rng),
		}
		for _, col := range tab.Columns {
			cs := collectColumn(data, col, opt)
			ts.Cols[col.Name] = cs
		}
		cat.Tables[tab.Name] = ts
	}
	return cat
}

// reservoir draws a uniform sample of up to k row indices, sorted ascending.
func reservoir(n, k int, rng *rand.Rand) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			out[j] = i
		}
	}
	sort.Ints(out)
	return out
}

func collectColumn(data *dataset.Table, col schema.Column, opt Options) *ColumnStats {
	cs := &ColumnStats{Table: data.Meta.Name, Column: col.Name, Type: col.Type, RowCount: data.NumRows}
	if col.Type == schema.IntCol {
		vals := data.IntColumn(col.Name)
		collectNumeric(cs, vals, opt)
	} else {
		vals := data.StrColumn(col.Name)
		collectString(cs, vals, opt)
	}
	return cs
}

func collectNumeric(cs *ColumnStats, vals []int64, opt Options) {
	if len(vals) == 0 {
		cs.NumHist = &NumHistogram{}
		return
	}
	sorted := make([]float64, len(vals))
	for i, v := range vals {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	cs.Min, cs.Max = sorted[0], sorted[len(sorted)-1]

	// Distinct count + frequency map for MCVs.
	freq := make(map[float64]int)
	for _, v := range sorted {
		freq[v]++
	}
	cs.NDV = len(freq)
	cs.MCVs, cs.MCVFreqTotal = topMCVsNum(freq, len(vals), opt.MaxMCVs)

	cs.NumHist = &NumHistogram{Bounds: equiDepthBounds(sorted, opt.Buckets)}
}

func collectString(cs *ColumnStats, vals []string, opt Options) {
	if len(vals) == 0 {
		cs.StrHist = &StrHistogram{}
		return
	}
	sorted := make([]string, len(vals))
	copy(sorted, vals)
	sort.Strings(sorted)
	freq := make(map[string]int)
	for _, v := range sorted {
		freq[v]++
	}
	cs.NDV = len(freq)
	cs.MCVs, cs.MCVFreqTotal = topMCVsStr(freq, len(vals), opt.MaxMCVs)

	nb := opt.Buckets
	bounds := make([]string, 0, nb+1)
	for i := 0; i <= nb; i++ {
		idx := i * (len(sorted) - 1) / nb
		bounds = append(bounds, sorted[idx])
	}
	cs.StrHist = &StrHistogram{Bounds: bounds}
}

// equiDepthBounds returns B+1 bucket boundaries over sorted values.
func equiDepthBounds(sorted []float64, nb int) []float64 {
	bounds := make([]float64, 0, nb+1)
	for i := 0; i <= nb; i++ {
		idx := i * (len(sorted) - 1) / nb
		bounds = append(bounds, sorted[idx])
	}
	return bounds
}

// mcvThreshold: values must cover at least this fraction of rows to be kept
// as MCVs (mirrors PostgreSQL keeping only values clearly more common than
// average).
const mcvThreshold = 0.002

func topMCVsNum(freq map[float64]int, n, maxMCVs int) ([]MCV, float64) {
	type kv struct {
		v float64
		c int
	}
	items := make([]kv, 0, len(freq))
	for v, c := range freq {
		items = append(items, kv{v, c})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].c != items[j].c {
			return items[i].c > items[j].c
		}
		return items[i].v < items[j].v
	})
	var out []MCV
	var total float64
	for _, it := range items {
		f := float64(it.c) / float64(n)
		if len(out) >= maxMCVs || f < mcvThreshold {
			break
		}
		out = append(out, MCV{Num: it.v, Freq: f})
		total += f
	}
	return out, total
}

func topMCVsStr(freq map[string]int, n, maxMCVs int) ([]MCV, float64) {
	type kv struct {
		v string
		c int
	}
	items := make([]kv, 0, len(freq))
	for v, c := range freq {
		items = append(items, kv{v, c})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].c != items[j].c {
			return items[i].c > items[j].c
		}
		return items[i].v < items[j].v
	})
	var out []MCV
	var total float64
	for _, it := range items {
		f := float64(it.c) / float64(n)
		if len(out) >= maxMCVs || f < mcvThreshold {
			break
		}
		out = append(out, MCV{Str: it.v, Freq: f})
		total += f
	}
	return out, total
}

// Table returns the stats of the named table, or nil.
func (c *Catalog) Table(name string) *TableStats { return c.Tables[name] }

// Column returns the stats for table.column, or nil.
func (c *Catalog) Column(table, column string) *ColumnStats {
	if ts := c.Tables[table]; ts != nil {
		return ts.Cols[column]
	}
	return nil
}

// NormalizeNumeric maps a numeric operand to [0,1] using the column's
// min/max, the operand encoding of Section 4.1 ("a normalized float").
func (c *Catalog) NormalizeNumeric(table, column string, v float64) float64 {
	cs := c.Column(table, column)
	if cs == nil || cs.Max <= cs.Min {
		return 0.5
	}
	s := (v - cs.Min) / (cs.Max - cs.Min)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// SampleBitmap evaluates pred over the table's sample rows into dst, which
// the caller supplies zeroed with the catalog's SampleSize as its length: one
// 0/1 per sample row (the paper's Sample Bitmap feature), left zero-padded
// when the table has fewer sampled rows, so the feature has a fixed dimension.
func (c *Catalog) SampleBitmap(dst []float64, table string, pred sqlpred.Pred) error {
	ts := c.Tables[table]
	if ts == nil {
		return nil
	}
	match, err := sqlpred.Compile(pred, table, c.DB.Table(table))
	if err != nil {
		return err
	}
	for i, row := range ts.Sample {
		if i >= len(dst) {
			break
		}
		if match(row) {
			dst[i] = 1
		}
	}
	return nil
}
