package schema

import "testing"

func tinySchema(t *testing.T) *Schema {
	t.Helper()
	tables := []*Table{
		{Name: "a", PrimaryKey: "id", Columns: []Column{
			{Name: "id", Type: IntCol},
			{Name: "x", Type: IntCol, Predicable: true},
			{Name: "s", Type: StringCol, Predicable: true},
		}},
		{Name: "b", PrimaryKey: "id", Columns: []Column{
			{Name: "id", Type: IntCol},
			{Name: "a_id", Type: IntCol},
		}},
		{Name: "c", PrimaryKey: "id", Columns: []Column{
			{Name: "id", Type: IntCol},
		}},
	}
	indexes := []*Index{
		{Name: "a_pkey", Table: "a", Column: "id"},
		{Name: "b_a_id", Table: "b", Column: "a_id"},
	}
	joins := []JoinEdge{
		{FKTable: "b", FKColumn: "a_id", PKTable: "a", PKColumn: "id"},
	}
	s, err := New(tables, indexes, joins)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidSchema(t *testing.T) {
	s := tinySchema(t)
	if s.NumTables() != 3 || s.NumColumns() != 6 || s.NumIndexes() != 2 {
		t.Fatalf("sizes: tables=%d cols=%d idx=%d", s.NumTables(), s.NumColumns(), s.NumIndexes())
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	mk := func(name string) *Table {
		return &Table{Name: name, PrimaryKey: "id", Columns: []Column{{Name: "id", Type: IntCol}}}
	}
	if _, err := New([]*Table{mk("a"), mk("a")}, nil, nil); err == nil {
		t.Error("duplicate table accepted")
	}
	bad := &Table{Name: "a", PrimaryKey: "nope", Columns: []Column{{Name: "id", Type: IntCol}}}
	if _, err := New([]*Table{bad}, nil, nil); err == nil {
		t.Error("missing primary key column accepted")
	}
	if _, err := New([]*Table{mk("a")}, []*Index{{Name: "i", Table: "zzz", Column: "id"}}, nil); err == nil {
		t.Error("index on unknown table accepted")
	}
	if _, err := New([]*Table{mk("a")}, nil,
		[]JoinEdge{{FKTable: "a", FKColumn: "nope", PKTable: "a", PKColumn: "id"}}); err == nil {
		t.Error("join on unknown column accepted")
	}
	dup := &Table{Name: "d", PrimaryKey: "id", Columns: []Column{
		{Name: "id", Type: IntCol}, {Name: "id", Type: IntCol}}}
	if _, err := New([]*Table{dup}, nil, nil); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestLookups(t *testing.T) {
	s := tinySchema(t)
	if s.TableID("a") != 0 || s.TableID("c") != 2 || s.TableID("zzz") != -1 {
		t.Error("TableID wrong")
	}
	id := s.ColumnID("a", "x")
	if id < 0 {
		t.Fatal("ColumnID missing")
	}
	col := s.ColumnByID(id)
	if col.Table != "a" || col.Name != "x" {
		t.Error("ColumnByID wrong")
	}
	if s.ColumnID("a", "nope") != -1 {
		t.Error("unknown column should be -1")
	}
	if Lookup(s, "b_a_id").Index == 0 || Lookup(s, "zzz").Index != 0 || Lookup(s, "a").Index != 0 {
		t.Error("index lookup wrong")
	}
	if s.IndexOn("b", "a_id") == nil || s.IndexOn("a", "x") != nil {
		t.Error("IndexOn wrong")
	}
	if s.Table("b").Column("a_id") == nil {
		t.Error("Table/Column accessors wrong")
	}
}

// TestColumnIDDenseAndAllocFree: column ids number the columns table by
// table in declaration order, and a lookup allocates nothing, even for a
// qualified name too long for a stack buffer.
func TestColumnIDDenseAndAllocFree(t *testing.T) {
	tables := []*Table{
		{Name: "movie_companies_long_table_name", Columns: []Column{
			{Name: "id", Type: IntCol}, {Name: "production_company_identifier", Type: IntCol}}},
		{Name: "cast_info", Columns: []Column{
			{Name: "id", Type: IntCol}, {Name: "person_role_identifier", Type: IntCol}, {Name: "note", Type: StringCol}}},
	}
	s, err := New(tables, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tab := range tables {
		for _, c := range tab.Columns {
			if id := s.ColumnID(tab.Name, c.Name); id != want {
				t.Fatalf("ColumnID(%s, %s) = %d, want %d", tab.Name, c.Name, id, want)
			}
			want++
		}
	}
	table, column := tables[0].Name, tables[0].Columns[1].Name
	allocs := testing.AllocsPerRun(200, func() {
		if s.ColumnID(table, column) != 1 || s.ColumnID(table, "missing") != -1 {
			t.Fatal("ColumnID wrong")
		}
	})
	if allocs != 0 {
		t.Errorf("ColumnID allocates %.1f objects/op, want 0", allocs)
	}
}

func TestJoinGraph(t *testing.T) {
	s := tinySchema(t)
	if len(s.JoinsOf("a")) != 1 || len(s.JoinsOf("c")) != 0 {
		t.Error("JoinsOf wrong")
	}
	if s.JoinBetween("a", "b") == nil || s.JoinBetween("b", "a") == nil {
		t.Error("JoinBetween must be symmetric")
	}
	if s.JoinBetween("a", "c") != nil {
		t.Error("phantom join")
	}
	if !s.ConnectedSubset([]string{"a", "b"}) {
		t.Error("a-b should be connected")
	}
	if s.ConnectedSubset([]string{"a", "c"}) {
		t.Error("a-c should be disconnected")
	}
	if !s.ConnectedSubset([]string{"c"}) {
		t.Error("singleton should be connected")
	}
	if s.ConnectedSubset(nil) {
		t.Error("empty set should not be connected")
	}
}

func TestPredicableColumns(t *testing.T) {
	s := tinySchema(t)
	cols := s.PredicableColumns("a")
	if len(cols) != 2 || cols[0].Name != "s" || cols[1].Name != "x" {
		t.Fatalf("PredicableColumns = %v (want sorted s, x)", cols)
	}
	if s.PredicableColumns("zzz") != nil {
		t.Error("unknown table should return nil")
	}
}

func TestJoinEdgeString(t *testing.T) {
	e := JoinEdge{FKTable: "b", FKColumn: "a_id", PKTable: "a", PKColumn: "id"}
	if e.String() != "b.a_id = a.id" {
		t.Errorf("String = %q", e.String())
	}
}

// TestNameTable: one entry per distinct name, whatever it names — a table
// and a column of another table may share one — resolving to the schema's
// own string and ids, from a string or from bytes, allocation-free.
func TestNameTable(t *testing.T) {
	s := tinySchema(t)
	a, x, idx := Lookup(s, "a"), Lookup(s, []byte("x")), Lookup(s, "b_a_id")
	switch {
	case a.Text != "a" || a.Table != int32(s.TableID("a")+1) || a.Index != 0:
		t.Fatalf("a: %+v", a)
	case x.Table != 0 || s.ColumnIn(a.Table, x) != int32(s.ColumnID("a", "x")+1):
		t.Fatalf("x: %+v, column of a %d", x, s.ColumnIn(a.Table, x))
	case s.ColumnIn(Lookup(s, "c").Table, x) != 0 || s.ColumnIn(0, x) != 0 || s.ColumnIn(a.Table, Name{}) != 0:
		t.Fatal("a column resolved on a table that does not have it")
	case idx.Index == 0 || idx.Table != 0 || Lookup(s, "zzz") != (Name{}):
		t.Fatal("index or unknown name resolved wrong")
	case s.ColumnTable(s.ColumnID("b", "a_id")) != s.TableID("b"):
		t.Fatal("ColumnTable wrong")
	}
	shared, err := New([]*Table{
		{Name: "title", Columns: []Column{{Name: "id", Type: IntCol}}},
		{Name: "movie", Columns: []Column{{Name: "id", Type: IntCol}, {Name: "title", Type: StringCol}}},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	title := Lookup(shared, []byte("title"))
	if title.Table != 1 || shared.ColumnIn(2, title) != 3 || shared.ColumnIn(1, title) != 0 {
		t.Fatalf("shared name: %+v, column of movie %d", title, shared.ColumnIn(2, title))
	}
	body := []byte("a_id")
	if allocs := testing.AllocsPerRun(100, func() { _ = s.ColumnIn(Lookup(s, body[:1]).Table, Lookup(s, body)) }); allocs != 0 {
		t.Fatalf("a lookup from bytes allocates %.1f objects", allocs)
	}
}
