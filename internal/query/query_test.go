package query

import (
	"strings"
	"testing"

	"costest/internal/plan"
	"costest/internal/sqlpred"
)

var mcTitle = plan.JoinCond{
	Left:  plan.ColRef{Table: "movie_companies", Column: "movie_id"},
	Right: plan.ColRef{Table: "title", Column: "id"},
}

func validQuery() *Query {
	return &Query{
		Tables: []string{"movie_companies", "title"},
		Joins:  []plan.JoinCond{mcTitle},
		Filters: map[string]sqlpred.Pred{
			"title": &sqlpred.Atom{Table: "title", Column: "production_year", Op: sqlpred.OpGt, NumVal: 2000},
		},
		Aggs: []plan.AggSpec{{Func: plan.AggCount}},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validQuery().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Query)
	}{
		{"duplicate table", func(q *Query) { q.Tables = []string{"title", "title"} }},
		{"join on unlisted table", func(q *Query) { q.Tables = []string{"title"} }},
		{"filter on unlisted table", func(q *Query) {
			q.Filters["keyword"] = &sqlpred.Atom{Table: "keyword", Column: "keyword", Op: sqlpred.OpEq, IsStr: true}
		}},
		{"filter crossing tables", func(q *Query) {
			q.Filters["title"] = &sqlpred.Atom{Table: "movie_companies", Column: "note", Op: sqlpred.OpEq, IsStr: true}
		}},
		{"missing joins", func(q *Query) { q.Joins = nil }},
	}
	for _, c := range cases {
		q := validQuery()
		c.mod(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestFilterAccessor(t *testing.T) {
	q := validQuery()
	if q.Filter("title") == nil {
		t.Error("title filter missing")
	}
	if q.Filter("movie_companies") != nil {
		t.Error("unexpected filter")
	}
	empty := &Query{Tables: []string{"title"}}
	if empty.Filter("title") != nil {
		t.Error("nil filter map must return nil")
	}
}

func TestSQLRendersAllClauses(t *testing.T) {
	sql := validQuery().SQL()
	for _, want := range []string{"SELECT COUNT(*)", "FROM movie_companies, title",
		"WHERE", "movie_companies.movie_id = title.id", "title.production_year > 2000"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q: %s", want, sql)
		}
	}
	if !strings.HasSuffix(sql, ";") {
		t.Error("SQL must end with a semicolon")
	}
}

func TestSQLStarProjection(t *testing.T) {
	q := validQuery()
	q.Aggs = nil
	if !strings.Contains(q.SQL(), "SELECT *") {
		t.Errorf("SQL = %s", q.SQL())
	}
}

func TestSQLNamedAggregates(t *testing.T) {
	q := validQuery()
	q.Aggs = []plan.AggSpec{
		{Func: plan.AggMin, Col: plan.ColRef{Table: "title", Column: "production_year"}},
		{Func: plan.AggMax, Col: plan.ColRef{Table: "title", Column: "episode_nr"}},
	}
	sql := q.SQL()
	if !strings.Contains(sql, "MIN(title.production_year)") || !strings.Contains(sql, "MAX(title.episode_nr)") {
		t.Errorf("SQL = %s", sql)
	}
}
