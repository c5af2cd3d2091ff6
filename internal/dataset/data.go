// Package dataset provides the in-memory column-store database the estimator
// is trained and evaluated on, together with a seeded generator producing an
// IMDB-like instance. The real IMDB snapshot used by the paper is replaced by
// synthetic data that plants the same properties the paper's experiments
// depend on: skewed fan-outs, cross-column and cross-table correlations, and
// string columns built from the pattern families the paper quotes
// ("(co-production)", "(presents)", "top 250 rank", "(2006) (USA) (TV)", ...).
package dataset

import (
	"fmt"

	"costest/internal/schema"
)

// Column holds one column's values. Exactly one of Ints/Strs is non-nil,
// matching the column's declared type.
type Column struct {
	Type schema.ColType
	Ints []int64
	Strs []string
}

// Table is the materialized contents of one table. Rows are addressed by
// dense indices 0..NumRows-1; primary keys are the contiguous ids 1..NumRows,
// so the PK index is the identity mapping (id-1 == row index).
type Table struct {
	Meta    *schema.Table
	Cols    []*Column
	colIdx  map[string]int
	NumRows int
}

// NewTable allocates an empty table for the given schema table.
func NewTable(meta *schema.Table) *Table {
	t := &Table{Meta: meta, colIdx: make(map[string]int, len(meta.Columns))}
	for i, c := range meta.Columns {
		t.colIdx[c.Name] = i
		col := &Column{Type: c.Type}
		t.Cols = append(t.Cols, col)
		_ = i
	}
	return t
}

// ColIndex returns the ordinal of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// IntColumn returns the int64 vector of the named column, or nil. This
// implements sqlpred.ColumnAccessor.
func (t *Table) IntColumn(name string) []int64 {
	i := t.ColIndex(name)
	if i < 0 || t.Cols[i].Type != schema.IntCol {
		return nil
	}
	return t.Cols[i].Ints
}

// StrColumn returns the string vector of the named column, or nil. This
// implements sqlpred.ColumnAccessor.
func (t *Table) StrColumn(name string) []string {
	i := t.ColIndex(name)
	if i < 0 || t.Cols[i].Type != schema.StringCol {
		return nil
	}
	return t.Cols[i].Strs
}

// AppendRow appends one row; vals must follow the schema column order with
// int64 for IntCol and string for StringCol.
func (t *Table) AppendRow(vals ...any) {
	if len(vals) != len(t.Cols) {
		panic(fmt.Sprintf("dataset: table %s expects %d values, got %d", t.Meta.Name, len(t.Cols), len(vals)))
	}
	for i, v := range vals {
		switch t.Cols[i].Type {
		case schema.IntCol:
			t.Cols[i].Ints = append(t.Cols[i].Ints, v.(int64))
		case schema.StringCol:
			t.Cols[i].Strs = append(t.Cols[i].Strs, v.(string))
		}
	}
	t.NumRows++
}

// PKRow returns the row index of the given primary key, or -1. Primary keys
// are contiguous 1..NumRows.
func (t *Table) PKRow(id int64) int {
	if id < 1 || id > int64(t.NumRows) {
		return -1
	}
	return int(id - 1)
}

// DB is a complete database instance.
type DB struct {
	Schema *schema.Schema
	Tables map[string]*Table
}

// Table returns the named table's data, or nil.
func (db *DB) Table(name string) *Table { return db.Tables[name] }

// TotalRows returns the number of rows across all tables.
func (db *DB) TotalRows() int {
	n := 0
	for _, t := range db.Tables {
		n += t.NumRows
	}
	return n
}
