// Package schema defines the logical database schema the estimator operates
// over: tables, typed columns, primary-key indexes and the PK-FK join graph.
// It also assigns the stable integer ids that the one-hot feature encodings
// (Section 4.1 of the paper) are built from.
package schema

import (
	"fmt"
	"sort"
)

// ColType is the type of a column.
type ColType int

// Column types. The paper's feature encoding distinguishes numeric operands
// (normalized floats) from string operands (learned embeddings).
const (
	IntCol ColType = iota
	StringCol
)

func (t ColType) String() string {
	if t == IntCol {
		return "int"
	}
	return "string"
}

// Column describes one column of a table.
type Column struct {
	Table string
	Name  string
	Type  ColType
	// Predicable marks columns the workload generators may place filter
	// predicates on (id/FK columns participate in joins instead).
	Predicable bool
}

// QualifiedName returns "table.column".
func (c Column) QualifiedName() string { return c.Table + "." + c.Name }

// Table describes one table.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey string // column name; "" if none
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// Index describes a secondary or primary-key index on a single column.
type Index struct {
	Name   string
	Table  string
	Column string
}

// JoinEdge is a PK-FK join relationship: fkTable.fkColumn = pkTable.pkColumn.
type JoinEdge struct {
	FKTable, FKColumn string
	PKTable, PKColumn string
}

// String renders the edge as a join condition.
func (e JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", e.FKTable, e.FKColumn, e.PKTable, e.PKColumn)
}

// Schema is the complete logical schema plus the id spaces used by one-hot
// encoders.
type Schema struct {
	Tables  []*Table
	Indexes []*Index
	Joins   []JoinEdge

	tableByName map[string]*Table
	tableID     map[string]int
	columnID    map[columnKey]int
	indexID     map[string]int
	columns     []Column // flattened, in id order
}

// New assembles a schema and freezes its id spaces. Tables keep their given
// order (ids follow it); columns are numbered table-by-table.
func New(tables []*Table, indexes []*Index, joins []JoinEdge) (*Schema, error) {
	s := &Schema{
		Tables:      tables,
		Indexes:     indexes,
		Joins:       joins,
		tableByName: make(map[string]*Table, len(tables)),
		tableID:     make(map[string]int, len(tables)),
		columnID:    make(map[columnKey]int),
		indexID:     make(map[string]int, len(indexes)),
	}
	for i, t := range tables {
		if _, dup := s.tableByName[t.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate table %q", t.Name)
		}
		s.tableByName[t.Name] = t
		s.tableID[t.Name] = i
		for j := range t.Columns {
			c := &t.Columns[j]
			c.Table = t.Name
			key := columnKey{t.Name, c.Name}
			if _, dup := s.columnID[key]; dup {
				return nil, fmt.Errorf("schema: duplicate column %q", c.QualifiedName())
			}
			s.columnID[key] = len(s.columns)
			s.columns = append(s.columns, *c)
		}
		if t.PrimaryKey != "" && t.Column(t.PrimaryKey) == nil {
			return nil, fmt.Errorf("schema: table %q primary key %q not a column", t.Name, t.PrimaryKey)
		}
	}
	for i, idx := range indexes {
		tab := s.tableByName[idx.Table]
		if tab == nil {
			return nil, fmt.Errorf("schema: index %q on unknown table %q", idx.Name, idx.Table)
		}
		if tab.Column(idx.Column) == nil {
			return nil, fmt.Errorf("schema: index %q on unknown column %s.%s", idx.Name, idx.Table, idx.Column)
		}
		if _, dup := s.indexID[idx.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate index %q", idx.Name)
		}
		s.indexID[idx.Name] = i
	}
	for _, j := range joins {
		for _, ref := range [][2]string{{j.FKTable, j.FKColumn}, {j.PKTable, j.PKColumn}} {
			tab := s.tableByName[ref[0]]
			if tab == nil || tab.Column(ref[1]) == nil {
				return nil, fmt.Errorf("schema: join %v references unknown column %s.%s", j, ref[0], ref[1])
			}
		}
	}
	return s, nil
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table { return s.tableByName[name] }

// NumTables returns the size of the table one-hot space.
func (s *Schema) NumTables() int { return len(s.Tables) }

// NumColumns returns the size of the column one-hot space.
func (s *Schema) NumColumns() int { return len(s.columns) }

// NumIndexes returns the size of the index one-hot space.
func (s *Schema) NumIndexes() int { return len(s.Indexes) }

// TableID returns the one-hot id of a table; -1 if unknown.
func (s *Schema) TableID(name string) int {
	if id, ok := s.tableID[name]; ok {
		return id
	}
	return -1
}

// columnKey addresses a column by its table and name, so a lookup builds no
// qualified-name string.
type columnKey struct{ table, column string }

// ColumnID returns the one-hot id of table.column; -1 if unknown.
func (s *Schema) ColumnID(table, column string) int {
	if id, ok := s.columnID[columnKey{table, column}]; ok {
		return id
	}
	return -1
}

// ColumnByID returns the column with the given id.
func (s *Schema) ColumnByID(id int) Column { return s.columns[id] }

// IndexID returns the one-hot id of an index; -1 if unknown.
func (s *Schema) IndexID(name string) int {
	if id, ok := s.indexID[name]; ok {
		return id
	}
	return -1
}

// IndexOn returns the index covering table.column, or nil.
func (s *Schema) IndexOn(table, column string) *Index {
	for _, idx := range s.Indexes {
		if idx.Table == table && idx.Column == column {
			return idx
		}
	}
	return nil
}

// JoinsOf returns every join edge touching the given table.
func (s *Schema) JoinsOf(table string) []JoinEdge {
	var out []JoinEdge
	for _, j := range s.Joins {
		if j.FKTable == table || j.PKTable == table {
			out = append(out, j)
		}
	}
	return out
}

// JoinBetween returns the edge joining tables a and b (in either direction),
// or nil if they are not adjacent in the join graph.
func (s *Schema) JoinBetween(a, b string) *JoinEdge {
	for i := range s.Joins {
		j := &s.Joins[i]
		if (j.FKTable == a && j.PKTable == b) || (j.FKTable == b && j.PKTable == a) {
			return j
		}
	}
	return nil
}

// ConnectedSubset reports whether the given tables form a connected subgraph
// of the join graph (a requirement for generated queries, Section 4.3).
func (s *Schema) ConnectedSubset(tables []string) bool {
	if len(tables) == 0 {
		return false
	}
	if len(tables) == 1 {
		return s.Table(tables[0]) != nil
	}
	in := make(map[string]bool, len(tables))
	for _, t := range tables {
		in[t] = true
	}
	seen := map[string]bool{tables[0]: true}
	frontier := []string{tables[0]}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, j := range s.JoinsOf(cur) {
			other := j.FKTable
			if other == cur {
				other = j.PKTable
			}
			if in[other] && !seen[other] {
				seen[other] = true
				frontier = append(frontier, other)
			}
		}
	}
	return len(seen) == len(tables)
}

// PredicableColumns returns the predicate-eligible columns of a table,
// sorted by name for determinism.
func (s *Schema) PredicableColumns(table string) []Column {
	t := s.Table(table)
	if t == nil {
		return nil
	}
	var out []Column
	for _, c := range t.Columns {
		if c.Predicable {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
