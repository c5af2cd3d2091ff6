// Package query defines the logical query specification produced by the
// workload generators and consumed by the planner: a connected set of
// tables, the PK-FK join conditions linking them, per-table filter
// predicates, and the aggregate projection list (Section 4.3's generated
// queries: SELECT MIN/MAX/COUNT ... FROM ... WHERE joins AND predicates).
package query

import (
	"fmt"
	"strings"

	"costest/internal/plan"
	"costest/internal/sqlpred"
)

// Query is a logical select-project-join-aggregate query.
type Query struct {
	Tables  []string
	Joins   []plan.JoinCond
	Filters map[string]sqlpred.Pred // keyed by table
	Aggs    []plan.AggSpec
}

// Filter returns the predicate on a table (nil if none).
func (q *Query) Filter(table string) sqlpred.Pred {
	if q.Filters == nil {
		return nil
	}
	return q.Filters[table]
}

// SQL renders the query as SQL text (for logs and examples).
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Aggs) == 0 {
		b.WriteString("*")
	} else {
		parts := make([]string, len(q.Aggs))
		for i, a := range q.Aggs {
			if a.Func == plan.AggCount && a.Col.Table == "" {
				parts[i] = "COUNT(*)"
			} else {
				parts[i] = fmt.Sprintf("%s(%s)", a.Func, a.Col)
			}
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, t := range q.Tables {
		if f := q.Filter(t); f != nil {
			conds = append(conds, f.String())
		}
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	b.WriteString(";")
	return b.String()
}

// Validate checks structural consistency: every join side and every filter
// references a listed table.
func (q *Query) Validate() error {
	in := make(map[string]bool, len(q.Tables))
	for _, t := range q.Tables {
		if in[t] {
			return fmt.Errorf("query: duplicate table %q", t)
		}
		in[t] = true
	}
	for _, j := range q.Joins {
		if !in[j.Left.Table] || !in[j.Right.Table] {
			return fmt.Errorf("query: join %v references unlisted table", j)
		}
	}
	for t, f := range q.Filters {
		if !in[t] {
			return fmt.Errorf("query: filter on unlisted table %q", t)
		}
		bad := false
		sqlpred.Walk(f, func(a *sqlpred.Atom) {
			if a.Table != t {
				bad = true
			}
		})
		if bad {
			return fmt.Errorf("query: filter keyed %q references another table", t)
		}
	}
	if len(q.Tables) > 1 && len(q.Joins) < len(q.Tables)-1 {
		return fmt.Errorf("query: %d tables but only %d joins", len(q.Tables), len(q.Joins))
	}
	return nil
}
