package experiments

import (
	"fmt"
	"sort"
	"strings"

	"costest/internal/metrics"
)

// ReportNumeric renders Tables 7-8 and Figure 7 as the paper lays them out.
func ReportNumeric(r *NumericResults) string {
	var b strings.Builder
	b.WriteString("=== Table 7: Cardinality errors on numeric workloads ===\n")
	for _, wt := range r.Table7 {
		writeTable(&b, wt.Workload, wt.Methods)
		b.WriteByte('\n')
	}
	b.WriteString("\n=== Table 8: Cost errors on numeric workloads ===\n")
	for _, wt := range r.Table8 {
		writeTable(&b, wt.Workload, wt.Methods)
		b.WriteByte('\n')
	}
	b.WriteString("\n=== Figure 7a: Card validation error vs epoch ===\n")
	writeCurves(&b, r.Figure7a)
	b.WriteString("\n=== Figure 7b: Cost validation error vs epoch ===\n")
	writeCurves(&b, r.Figure7b)
	return b.String()
}

// ReportStrings renders Tables 10-12 and Figures 8-10.
func ReportStrings(r *StringResults) string {
	var b strings.Builder
	b.WriteString("=== Table 10: Cardinality errors on the JOB workload ===\n")
	writeTable(&b, "Cardinality", r.Table10)
	b.WriteString("\n=== Table 11: Cost errors on the JOB workload ===\n")
	writeTable(&b, "Cost", r.Table11)
	b.WriteString("\n=== Figure 8: Single-table card validation error vs epoch ===\n")
	writeCurves(&b, r.Figure8)

	b.WriteString("\n=== Figure 9: Error distribution on the JOB workload (log-scale boxes) ===\n")
	names := make([]string, 0, len(r.Figure9))
	for k := range r.Figure9 {
		names = append(names, k)
	}
	sort.Strings(names)
	b.WriteString("Cardinality:\n")
	for _, n := range names {
		b.WriteString("  " + r.Figure9[n].Card.Render(n, 40) + "\n")
	}
	b.WriteString("Cost:\n")
	for _, n := range names {
		b.WriteString("  " + r.Figure9[n].Cost.Render(n, 40) + "\n")
	}

	b.WriteString("\n=== Figure 10: Estimated vs real cost (per real-cost quartile) ===\n")
	fnames := make([]string, 0, len(r.Figure10))
	for k := range r.Figure10 {
		fnames = append(fnames, k)
	}
	sort.Strings(fnames)
	for _, n := range fnames {
		b.WriteString(figure10Row(n, r.Figure10[n]))
	}

	b.WriteString("\n=== Table 12: Efficiency (ms per query, JOB workload) ===\n")
	fmt.Fprintf(&b, "%-12s %6s %10s\n", "Method", "Batch", "Time(ms)")
	for _, row := range r.Table12 {
		batch := "No"
		if row.Batch {
			batch = "Yes"
		}
		fmt.Fprintf(&b, "%-12s %6s %10.3f\n", row.Method, batch, row.PerMsQ)
	}
	return b.String()
}

// writeTable renders one accuracy table (Tables 7, 8, 10 and 11): a header
// titled title, then one row per method.
func writeTable(b *strings.Builder, title string, methods []MethodErrors) {
	b.WriteString(metrics.Header(title))
	b.WriteByte('\n')
	for _, m := range methods {
		b.WriteString(m.Summary.Row(m.Name))
		b.WriteByte('\n')
	}
}

func writeCurves(b *strings.Builder, curves []Curve) {
	for _, c := range curves {
		fmt.Fprintf(b, "%-16s", c.Name)
		for _, v := range c.Values {
			fmt.Fprintf(b, " %7.2f", v)
		}
		b.WriteByte('\n')
	}
}

// figure10Row summarizes a method's estimate/real ratio per real-cost
// quartile (the textual equivalent of the scatter plot).
func figure10Row(name string, pts []CostPoint) string {
	if len(pts) == 0 {
		return fmt.Sprintf("%-18s (no data)\n", name)
	}
	sorted := make([]CostPoint, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Real < sorted[j].Real })
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", name)
	for q := 0; q < 4; q++ {
		lo := q * len(sorted) / 4
		hi := (q + 1) * len(sorted) / 4
		if hi <= lo {
			hi = lo + 1
		}
		ratios := make([]float64, 0, hi-lo)
		for _, p := range sorted[lo:min(hi, len(sorted))] {
			if p.Real > 0 && p.Est > 0 {
				ratios = append(ratios, p.Est/p.Real)
			}
		}
		fmt.Fprintf(&b, "  Q%d est/real=%.2f", q+1, metrics.GeoMean(ratios))
	}
	b.WriteByte('\n')
	return b.String()
}
