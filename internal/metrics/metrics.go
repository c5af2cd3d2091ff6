// Package metrics computes the error statistics the paper reports: q-error
// summaries with median/90th/95th/99th/max/mean columns (Tables 7-11) and
// box-plot statistics (Figure 9).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"costest/internal/tensor"
)

// Summary holds the paper's table columns for one method on one workload.
type Summary struct {
	Median float64
	P90    float64
	P95    float64
	P99    float64
	Max    float64
	Mean   float64
	N      int
}

// Summarize computes a Summary over a set of errors.
func Summarize(errs []float64) Summary {
	if len(errs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(errs))
	copy(sorted, errs)
	sort.Float64s(sorted)
	sum := tensor.Sum(sorted)
	return Summary{
		Median: Percentile(sorted, 50),
		P90:    Percentile(sorted, 90),
		P95:    Percentile(sorted, 95),
		P99:    Percentile(sorted, 99),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
		N:      len(sorted),
	}
}

// Percentile returns the p-th percentile (0-100) of pre-sorted values using
// linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Row formats the summary as a paper-style table row.
func (s Summary) Row(name string) string {
	return fmt.Sprintf("%-18s %8s %8s %8s %8s %9s %8s",
		name, fmtErr(s.Median), fmtErr(s.P90), fmtErr(s.P95),
		fmtErr(s.P99), fmtErr(s.Max), fmtErr(s.Mean))
}

// Header returns the column header matching Row.
func Header(label string) string {
	return fmt.Sprintf("%-18s %8s %8s %8s %8s %9s %8s",
		label, "median", "90th", "95th", "99th", "max", "mean")
}

func fmtErr(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e5:
		return fmt.Sprintf("%.2e", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// BoxStats holds box-plot statistics (Figure 9): quartiles plus whiskers at
// 1.5 IQR clamped to the data range.
type BoxStats struct {
	P25, P50, P75    float64
	WhiskLo, WhiskHi float64
	Lo, Hi           float64
}

// Box computes box-plot statistics over errors.
func Box(errs []float64) BoxStats {
	if len(errs) == 0 {
		return BoxStats{}
	}
	sorted := make([]float64, len(errs))
	copy(sorted, errs)
	sort.Float64s(sorted)
	b := BoxStats{
		P25: Percentile(sorted, 25),
		P50: Percentile(sorted, 50),
		P75: Percentile(sorted, 75),
		Lo:  sorted[0],
		Hi:  sorted[len(sorted)-1],
	}
	iqr := b.P75 - b.P25
	b.WhiskLo = math.Max(b.Lo, b.P25-1.5*iqr)
	b.WhiskHi = math.Min(b.Hi, b.P75+1.5*iqr)
	return b
}

// Render draws a rough ASCII box plot on a log scale, for terminal reports.
func (b BoxStats) Render(name string, width int) string {
	if width < 20 {
		width = 40
	}
	if b.Hi <= 0 {
		return fmt.Sprintf("%-18s (no data)", name)
	}
	logPos := func(v float64) int {
		if v < 1 {
			v = 1
		}
		maxLog := math.Log10(math.Max(b.Hi, 10))
		p := int(math.Log10(v) / maxLog * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	row := make([]byte, width)
	for i := range row {
		row[i] = ' '
	}
	for i := logPos(b.WhiskLo); i <= logPos(b.WhiskHi); i++ {
		row[i] = '-'
	}
	for i := logPos(b.P25); i <= logPos(b.P75); i++ {
		row[i] = '='
	}
	row[logPos(b.P50)] = '|'
	return fmt.Sprintf("%-18s [%s] p25=%.1f p50=%.1f p75=%.1f max=%.0f",
		name, string(row), b.P25, b.P50, b.P75, b.Hi)
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
