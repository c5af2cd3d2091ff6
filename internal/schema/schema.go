// Package schema defines the logical database schema the estimator operates
// over: tables, typed columns, primary-key indexes and the PK-FK join graph.
// It also assigns the stable integer ids that the one-hot feature encodings
// (Section 4.1 of the paper) are built from, and holds the one name table
// that resolves a table, column or index name to them.
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

	names    map[string]Name // the name table
	colNames int             // distinct column names
	columnIn []int32         // [table id*colNames + Name.column-1]: 1 + column id, 0: none
	columns  []Column
	tableOf  []int32 // by column id: its table's id
}

// Name is an entry of the schema's name table: a name that a table, a column
// or an index has, the schema's own copy of it, and 1 + the id of the table
// and of the index so named (0: none). The zero Name is no name.
type Name struct {
	Text         string
	Table, Index int32
	column       int32 // 1 + its number among column names; 0: no column's
}

// New assembles a schema and freezes its id spaces and its name table. Tables
// keep their given order (ids follow it); columns are numbered table-by-table.
func New(tables []*Table, indexes []*Index, joins []JoinEdge) (*Schema, error) {
	s := &Schema{Tables: tables, Indexes: indexes, Joins: joins, names: make(map[string]Name)}
	for i, t := range tables {
		n := s.names[t.Name]
		if n.Table != 0 {
			return nil, fmt.Errorf("schema: duplicate table %q", t.Name)
		}
		n.Text, n.Table = t.Name, int32(i+1)
		s.names[t.Name] = n
		for j := range t.Columns {
			c := &t.Columns[j]
			c.Table = t.Name
			if n := s.names[c.Name]; n.column == 0 {
				s.colNames++
				n.Text, n.column = c.Name, int32(s.colNames)
				s.names[c.Name] = n
			}
			s.columns = append(s.columns, *c)
			s.tableOf = append(s.tableOf, int32(i))
		}
		if t.PrimaryKey != "" && t.Column(t.PrimaryKey) == nil {
			return nil, fmt.Errorf("schema: table %q primary key %q not a column", t.Name, t.PrimaryKey)
		}
	}
	s.columnIn = make([]int32, len(tables)*s.colNames)
	for id, c := range s.columns {
		at := &s.columnIn[int(s.tableOf[id])*s.colNames+int(s.names[c.Name].column-1)]
		if *at != 0 {
			return nil, fmt.Errorf("schema: duplicate column %q", c.QualifiedName())
		}
		*at = int32(id + 1)
	}
	for i, idx := range indexes {
		tab := s.Table(idx.Table)
		if tab == nil {
			return nil, fmt.Errorf("schema: index %q on unknown table %q", idx.Name, idx.Table)
		}
		if tab.Column(idx.Column) == nil {
			return nil, fmt.Errorf("schema: index %q on unknown column %s.%s", idx.Name, idx.Table, idx.Column)
		}
		n := s.names[idx.Name]
		if n.Index != 0 {
			return nil, fmt.Errorf("schema: duplicate index %q", idx.Name)
		}
		n.Text, n.Index = idx.Name, int32(i+1)
		s.names[idx.Name] = n
	}
	for _, j := range joins {
		for _, ref := range [][2]string{{j.FKTable, j.FKColumn}, {j.PKTable, j.PKColumn}} {
			tab := s.Table(ref[0])
			if tab == nil || tab.Column(ref[1]) == nil {
				return nil, fmt.Errorf("schema: join %v references unknown column %s.%s", j, ref[0], ref[1])
			}
		}
	}
	return s, nil
}

// Lookup finds a name in the schema's name table; the zero Name if no table,
// column or index has it. The name may be a string or the bytes of a request
// body: the lookup builds no string.
func Lookup[T string | []byte](s *Schema, name T) Name { return s.names[string(name)] }

// ColumnIn returns 1 + the id of the column named c of the table with id
// table-1; 0 if there is no such column.
func (s *Schema) ColumnIn(table int32, c Name) int32 {
	if table == 0 || c.column == 0 {
		return 0
	}
	return s.columnIn[int(table-1)*s.colNames+int(c.column-1)]
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	if id := s.TableID(name); id >= 0 {
		return s.Tables[id]
	}
	return nil
}

// NumTables returns the size of the table one-hot space.
func (s *Schema) NumTables() int { return len(s.Tables) }

// NumColumns returns the size of the column one-hot space.
func (s *Schema) NumColumns() int { return len(s.columns) }

// NumIndexes returns the size of the index one-hot space.
func (s *Schema) NumIndexes() int { return len(s.Indexes) }

// TableID returns the one-hot id of a table; -1 if unknown.
func (s *Schema) TableID(name string) int { return int(Lookup(s, name).Table) - 1 }

// ColumnID returns the one-hot id of table.column; -1 if unknown.
func (s *Schema) ColumnID(table, column string) int {
	return int(s.ColumnIn(Lookup(s, table).Table, Lookup(s, column))) - 1
}

// ColumnByID returns the column with the given id.
func (s *Schema) ColumnByID(id int) Column { return s.columns[id] }

// ColumnTable returns the id of the table of the column with the given id.
func (s *Schema) ColumnTable(id int) int { return int(s.tableOf[id]) }

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
