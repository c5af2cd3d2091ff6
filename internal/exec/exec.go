// Package exec executes physical plans against the in-memory database and
// charges calibrated work units for every operation. The resulting
// deterministic "milliseconds" play the role of the real execution times the
// paper trains on, and the per-node output counts provide the true
// cardinalities; both are recorded into the plan's TrueRows/TrueCost
// annotations.
package exec

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"costest/internal/dataset"
	"costest/internal/plan"
	"costest/internal/sqlpred"
)

// ErrTooBig is returned when an intermediate result exceeds Engine.MaxRows;
// the workload generators drop such queries.
var ErrTooBig = errors.New("exec: intermediate result too large")

// RowsPerPage converts tuple counts to page counts for I/O accounting.
const RowsPerPage = 100

// Cost weights, in milliseconds per unit of work. They shape the nonlinear
// relationship between plan structure, cardinalities and cost that the model
// has to learn; absolute calibration is irrelevant to the experiments.
const (
	msSeqPage    = 0.010
	msRandPage   = 0.040
	msTuple      = 0.0005
	msHashBuild  = 0.0012
	msHashProbe  = 0.0008
	msCompare    = 0.0003
	msIndexProbe = 0.0020
	msOutput     = 0.0005
	msStartup    = 0.05 // per-operator startup overhead
)

// Memory-hierarchy effects make the true cost a nonlinear function of the
// work counters, the way real execution times are nonlinear in PostgreSQL's
// cost features: hash tables and sorts that outgrow the cache pay a
// super-linear penalty per additional row. A learned estimator can absorb
// this from data; a linear cost model cannot, which is exactly the gap the
// paper's experiments measure.
const (
	cacheRows        = 4096
	msHashBuildSpill = 0.004
	msSortSpill      = 0.001
)

// Counters accumulates the work performed by one operator.
type Counters struct {
	SeqPages    float64
	RandPages   float64
	Tuples      float64
	HashBuild   float64
	HashProbe   float64
	Comparisons float64
	IndexProbes float64
	Output      float64
	SortedRows  float64 // rows materialized by sorts (merge join, Sort)
}

// Cost converts the counters into deterministic milliseconds, including the
// super-linear cache-spill penalties for large hash builds and sorts.
func (c Counters) Cost() float64 {
	cost := msStartup +
		msSeqPage*c.SeqPages +
		msRandPage*c.RandPages +
		msTuple*c.Tuples +
		msHashBuild*c.HashBuild +
		msHashProbe*c.HashProbe +
		msCompare*c.Comparisons +
		msIndexProbe*c.IndexProbes +
		msOutput*c.Output
	if c.HashBuild > cacheRows {
		over := c.HashBuild - cacheRows
		cost += msHashBuildSpill * over
		// Probes against a spilled table also slow down.
		cost += msHashProbe * c.HashProbe * math.Min(3, over/cacheRows)
	}
	if c.SortedRows > cacheRows {
		cost += msSortSpill * (c.SortedRows - cacheRows) * math.Log2(c.SortedRows/cacheRows+2)
	}
	return cost
}

// Relation is an intermediate result: a bag of composite tuples, each tuple
// holding one row index per base table. A relation only an Aggregate reads
// is counted, not built: its Data is nil and rows holds its cardinality, as
// it does for the Aggregate's own one-row result.
type Relation struct {
	Tables []string
	Width  int
	Data   []int32 // Width * NumRows entries, row-major
	rows   int
}

// NumRows returns the relation's cardinality.
func (r *Relation) NumRows() int {
	if r.Data == nil {
		return r.rows
	}
	return len(r.Data) / r.Width
}

// ColOf returns the tuple position of a base table, or -1.
func (r *Relation) ColOf(table string) int {
	for i, t := range r.Tables {
		if t == table {
			return i
		}
	}
	return -1
}

// Row returns the i-th composite tuple (a view into Data).
func (r *Relation) Row(i int) []int32 {
	return r.Data[i*r.Width : (i+1)*r.Width]
}

// Engine executes plans. It is immutable after construction and safe for
// concurrent Run calls, which the training-data generator exploits.
type Engine struct {
	DB      *dataset.DB
	MaxRows int
	// secondary indexes keyed "table.column": value -> row indices.
	secondary map[string]map[int64][]int32
}

// NewEngine builds an engine, materializing every secondary (non-PK) index
// declared in the schema.
func NewEngine(db *dataset.DB) *Engine {
	e := &Engine{DB: db, MaxRows: 2_000_000, secondary: make(map[string]map[int64][]int32)}
	for _, idx := range db.Schema.Indexes {
		if idx.Column == db.Schema.Table(idx.Table).PrimaryKey {
			continue // PK ids are contiguous; the identity map suffices
		}
		key := idx.Table + "." + idx.Column
		col := db.Table(idx.Table).IntColumn(idx.Column)
		m := make(map[int64][]int32)
		for row, v := range col {
			m[v] = append(m[v], int32(row))
		}
		e.secondary[key] = m
	}
	return e
}

// Run executes the plan rooted at root, annotating every node with TrueRows
// and cumulative TrueCost, and returns the root result.
func (e *Engine) Run(root *plan.Node) (*Relation, error) {
	rel, _, err := e.exec(root, false)
	return rel, err
}

// exec returns (result, cumulative cost, error). With count set, a join at
// n returns its cardinality without building its tuples.
func (e *Engine) exec(n *plan.Node, count bool) (*Relation, float64, error) {
	if n == nil {
		return nil, 0, errors.New("exec: nil plan node")
	}
	var (
		rel       *Relation
		childCost float64
		c         Counters
		err       error
	)
	switch n.Type {
	case plan.SeqScan:
		rel, err = e.seqScan(n, &c)
	case plan.IndexScan:
		rel, err = e.indexScan(n, &c)
	case plan.HashJoin:
		rel, childCost, err = e.hashJoin(n, &c, count)
	case plan.MergeJoin:
		rel, childCost, err = e.mergeJoin(n, &c, count)
	case plan.NestedLoop:
		rel, childCost, err = e.nestedLoop(n, &c, count)
	case plan.Sort:
		rel, childCost, err = e.sortOp(n, &c)
	case plan.Aggregate:
		rel, childCost, err = e.aggregate(n, &c)
	default:
		return nil, 0, fmt.Errorf("exec: unsupported node type %v", n.Type)
	}
	if err != nil {
		return nil, 0, err
	}
	if rel.NumRows() > e.MaxRows {
		return nil, 0, ErrTooBig
	}
	total := childCost + c.Cost()
	n.TrueRows = float64(rel.NumRows())
	n.TrueCost = total
	return rel, total, nil
}

func (e *Engine) seqScan(n *plan.Node, c *Counters) (*Relation, error) {
	data := e.DB.Table(n.Table)
	if data == nil {
		return nil, fmt.Errorf("exec: unknown table %q", n.Table)
	}
	match, err := sqlpred.Compile(n.Filter, n.Table, data)
	if err != nil {
		return nil, err
	}
	rel := &Relation{Tables: []string{n.Table}, Width: 1}
	atoms := float64(sqlpred.CountAtoms(n.Filter))
	for row := 0; row < data.NumRows; row++ {
		if match(row) {
			rel.Data = append(rel.Data, int32(row))
		}
	}
	c.Tuples += float64(data.NumRows)
	c.Comparisons += float64(data.NumRows) * atoms
	c.SeqPages += math.Ceil(float64(data.NumRows) / RowsPerPage)
	c.Output += float64(rel.NumRows())
	return rel, nil
}

// indexScan executes a filter-driven index scan (IndexCond set). Inner-side
// parameterized scans (ParamJoin set) are driven by the nested-loop parent.
func (e *Engine) indexScan(n *plan.Node, c *Counters) (*Relation, error) {
	if n.ParamJoin != nil {
		return nil, errors.New("exec: parameterized index scan executed without nested-loop parent")
	}
	if n.IndexCond == nil {
		return nil, fmt.Errorf("exec: index scan on %s without index condition", n.Table)
	}
	data := e.DB.Table(n.Table)
	if data == nil {
		return nil, fmt.Errorf("exec: unknown table %q", n.Table)
	}
	rows, probes, err := e.indexLookup(n.Table, n.IndexCond)
	if err != nil {
		return nil, err
	}
	c.IndexProbes += probes
	c.RandPages += float64(len(rows))
	c.Tuples += float64(len(rows))

	match, err := sqlpred.Compile(n.Filter, n.Table, data)
	if err != nil {
		return nil, err
	}
	atoms := float64(sqlpred.CountAtoms(n.Filter))
	rel := &Relation{Tables: []string{n.Table}, Width: 1}
	for _, row := range rows {
		if match(int(row)) {
			rel.Data = append(rel.Data, row)
		}
	}
	c.Comparisons += float64(len(rows)) * atoms
	c.Output += float64(rel.NumRows())
	return rel, nil
}

// indexLookup returns the row indices satisfying an index condition on
// table.column, plus the probe work performed.
func (e *Engine) indexLookup(table string, cond *sqlpred.Atom) ([]int32, float64, error) {
	data := e.DB.Table(table)
	pk := e.DB.Schema.Table(table).PrimaryKey
	logN := math.Log2(float64(data.NumRows) + 2)
	if cond.Column == pk {
		// Contiguous PK: translate the condition into an id range.
		lo, hi := int64(1), int64(data.NumRows)
		v := int64(cond.NumVal)
		switch cond.Op {
		case sqlpred.OpEq:
			lo, hi = v, v
		case sqlpred.OpLt:
			hi = v - 1
		case sqlpred.OpLe:
			hi = v
		case sqlpred.OpGt:
			lo = v + 1
		case sqlpred.OpGe:
			lo = v
		default:
			return nil, 0, fmt.Errorf("exec: unsupported PK index op %v", cond.Op)
		}
		if lo < 1 {
			lo = 1
		}
		if hi > int64(data.NumRows) {
			hi = int64(data.NumRows)
		}
		rows := make([]int32, 0, max(0, hi-lo+1))
		for id := lo; id <= hi; id++ {
			rows = append(rows, int32(id-1))
		}
		return rows, logN, nil
	}
	m := e.secondary[table+"."+cond.Column]
	if m == nil {
		return nil, 0, fmt.Errorf("exec: no index on %s.%s", table, cond.Column)
	}
	if cond.Op != sqlpred.OpEq {
		return nil, 0, fmt.Errorf("exec: secondary index supports only equality, got %v", cond.Op)
	}
	return m[int64(cond.NumVal)], logN, nil
}

// joinKeys resolves which side of the join condition belongs to which child
// relation, returning (leftRef, rightRef).
func joinKeys(cond *plan.JoinCond, left, right *Relation) (plan.ColRef, plan.ColRef, error) {
	if left.ColOf(cond.Left.Table) >= 0 && right.ColOf(cond.Right.Table) >= 0 {
		return cond.Left, cond.Right, nil
	}
	if left.ColOf(cond.Right.Table) >= 0 && right.ColOf(cond.Left.Table) >= 0 {
		return cond.Right, cond.Left, nil
	}
	return plan.ColRef{}, plan.ColRef{}, fmt.Errorf("exec: join condition %v does not span children", cond)
}

// keyed is a relation with the int column its tuples are keyed by: the
// column of the base table at tuple position pos.
type keyed struct {
	*Relation
	col []int64
	pos int
}

// key returns the i-th tuple's key.
func (k keyed) key(i int) int64 { return k.col[k.Row(i)[k.pos]] }

// keyColumn keys a relation by a column of one of its base tables.
func (e *Engine) keyColumn(rel *Relation, ref plan.ColRef) (keyed, error) {
	pos := rel.ColOf(ref.Table)
	if pos < 0 {
		return keyed{}, fmt.Errorf("exec: table %s not in relation", ref.Table)
	}
	col := e.DB.Table(ref.Table).IntColumn(ref.Column)
	if col == nil {
		return keyed{}, fmt.Errorf("exec: join key %s is not an int column", ref)
	}
	return keyed{rel, col, pos}, nil
}

// joinInputs executes a join's two children and keys each by its side of
// the join condition, returning them with their summed cost.
func (e *Engine) joinInputs(n *plan.Node) (l, r keyed, cost float64, err error) {
	left, lc, err := e.exec(n.Left, false)
	if err != nil {
		return l, r, 0, err
	}
	right, rc, err := e.exec(n.Right, false)
	if err != nil {
		return l, r, 0, err
	}
	lRef, rRef, err := joinKeys(n.JoinCond, left, right)
	if err != nil {
		return l, r, 0, err
	}
	if l, err = e.keyColumn(left, lRef); err == nil {
		r, err = e.keyColumn(right, rRef)
	}
	return l, r, lc + rc, err
}

// joined returns an empty join output: left's tables, then tables.
func joined(left *Relation, tables []string, width int) *Relation {
	return &Relation{Tables: append(append([]string{}, left.Tables...), tables...), Width: left.Width + width}
}

// add appends the tuple l then r to a join's output, or only counts it when
// count is set. Past MaxRows it returns ErrTooBig.
func (e *Engine) add(out *Relation, count bool, l, r []int32) error {
	out.rows++
	if out.rows > e.MaxRows {
		return ErrTooBig
	}
	if !count {
		out.Data = append(append(out.Data, l...), r...)
	}
	return nil
}

// presize readies a join output of known cardinality: counted when count is
// set, else with Data allocated at its exact size for the join to fill. Past
// MaxRows it returns ErrTooBig.
func (e *Engine) presize(out *Relation, rows int, count bool) error {
	if rows > e.MaxRows {
		return ErrTooBig
	}
	if count {
		out.rows = rows
	} else {
		out.Data = make([]int32, 0, rows*out.Width)
	}
	return nil
}

func (e *Engine) hashJoin(n *plan.Node, c *Counters, count bool) (*Relation, float64, error) {
	l, r, cost, err := e.joinInputs(n)
	if err != nil {
		return nil, 0, err
	}
	// Build on the right child (the planner puts the smaller estimate there).
	// A key's bucket holds its first row and its size; next chains the rest
	// in ascending row order, so matches come out in build order.
	type bucket struct{ first, n int32 }
	build := make(map[int64]bucket, r.NumRows())
	next := make([]int32, r.NumRows())
	for i := r.NumRows() - 1; i >= 0; i-- {
		b := build[r.key(i)]
		next[i] = b.first
		build[r.key(i)] = bucket{int32(i), b.n + 1}
	}
	c.HashBuild += float64(r.NumRows())
	c.HashProbe += float64(l.NumRows())

	rows := 0
	for i := 0; i < l.NumRows(); i++ {
		rows += int(build[l.key(i)].n)
	}
	out := joined(l.Relation, r.Tables, r.Width)
	if err := e.presize(out, rows, count); err != nil {
		return nil, 0, err
	}
	for i := 0; i < l.NumRows() && !count; i++ {
		b := build[l.key(i)]
		for j, m := b.first, int32(0); m < b.n; j, m = next[j], m+1 {
			out.Data = append(append(out.Data, l.Row(i)...), r.Row(int(j))...)
		}
	}
	c.Output += float64(rows)
	return out, cost, nil
}

func (e *Engine) mergeJoin(n *plan.Node, c *Counters, count bool) (*Relation, float64, error) {
	l, r, cost, err := e.joinInputs(n)
	if err != nil {
		return nil, 0, err
	}
	lIdx, rIdx := sortedOrder(l), sortedOrder(r)
	nl, nr := float64(l.NumRows()), float64(r.NumRows())
	c.Comparisons += nl*math.Log2(nl+2) + nr*math.Log2(nr+2) + nl + nr
	c.SortedRows += nl + nr

	// runs passes each pair of equal-key runs, [i0,i1) of lIdx and [j0,j1)
	// of rIdx, to run in key order.
	runs := func(run func(i0, i1, j0, j1 int)) {
		i, j := 0, 0
		for i < len(lIdx) && j < len(rIdx) {
			switch lk, rk := l.key(lIdx[i]), r.key(rIdx[j]); {
			case lk < rk:
				i++
			case lk > rk:
				j++
			default:
				i0, j0 := i, j
				for i < len(lIdx) && l.key(lIdx[i]) == lk {
					i++
				}
				for j < len(rIdx) && r.key(rIdx[j]) == lk {
					j++
				}
				run(i0, i, j0, j)
			}
		}
	}
	rows := 0
	runs(func(i0, i1, j0, j1 int) { rows += (i1 - i0) * (j1 - j0) })
	out := joined(l.Relation, r.Tables, r.Width)
	if err := e.presize(out, rows, count); err != nil {
		return nil, 0, err
	}
	if !count {
		// The output is the cross product of each pair of runs.
		runs(func(i0, i1, j0, j1 int) {
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					out.Data = append(append(out.Data, l.Row(lIdx[i])...), r.Row(rIdx[j])...)
				}
			}
		})
	}
	c.Output += float64(rows)
	return out, cost, nil
}

func sortedOrder(k keyed) []int {
	idx := make([]int, k.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return k.key(idx[a]) < k.key(idx[b]) })
	return idx
}

func (e *Engine) nestedLoop(n *plan.Node, c *Counters, count bool) (*Relation, float64, error) {
	// Index nested loop: inner side is a parameterized index scan.
	if n.Right != nil && n.Right.Type == plan.IndexScan && n.Right.ParamJoin != nil {
		left, lc, err := e.exec(n.Left, false)
		if err != nil {
			return nil, 0, err
		}
		return e.indexNL(n, left, lc, c, count)
	}
	// Naive nested loop over a materialized inner.
	l, r, cost, err := e.joinInputs(n)
	if err != nil {
		return nil, 0, err
	}
	out := joined(l.Relation, r.Tables, r.Width)
	for i := 0; i < l.NumRows(); i++ {
		for j := 0; j < r.NumRows(); j++ {
			if r.key(j) == l.key(i) {
				if err := e.add(out, count, l.Row(i), r.Row(j)); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	c.Comparisons += float64(l.NumRows()) * float64(r.NumRows())
	c.Output += float64(out.NumRows())
	return out, cost, nil
}

// indexNL drives the inner parameterized index scan once per outer tuple.
func (e *Engine) indexNL(n *plan.Node, left *Relation, lc float64, c *Counters, count bool) (*Relation, float64, error) {
	inner := n.Right
	innerData := e.DB.Table(inner.Table)
	if innerData == nil {
		return nil, 0, fmt.Errorf("exec: unknown inner table %q", inner.Table)
	}
	pj := inner.ParamJoin
	// Determine outer key column: the side of ParamJoin not on the inner table.
	outerRef, innerRef := pj.Left, pj.Right
	if outerRef.Table == inner.Table {
		outerRef, innerRef = pj.Right, pj.Left
	}
	outer, err := e.keyColumn(left, outerRef)
	if err != nil {
		return nil, 0, err
	}
	match, err := sqlpred.Compile(inner.Filter, inner.Table, innerData)
	if err != nil {
		return nil, 0, err
	}
	atoms := float64(sqlpred.CountAtoms(inner.Filter))
	pk := e.DB.Schema.Table(inner.Table).PrimaryKey
	var lookup func(k int64) []int32
	if innerRef.Column == pk {
		hit := make([]int32, 1)
		lookup = func(k int64) []int32 {
			if r := innerData.PKRow(k); r >= 0 {
				hit[0] = int32(r)
				return hit
			}
			return nil
		}
	} else {
		m := e.secondary[inner.Table+"."+innerRef.Column]
		if m == nil {
			return nil, 0, fmt.Errorf("exec: no index on %s.%s for index nested loop", inner.Table, innerRef.Column)
		}
		lookup = func(k int64) []int32 { return m[k] }
	}

	logN := math.Log2(float64(innerData.NumRows) + 2)
	out := joined(left, []string{inner.Table}, 1)
	var innerC Counters
	for i := 0; i < left.NumRows(); i++ {
		rows := lookup(outer.key(i))
		innerC.IndexProbes += logN
		innerC.RandPages += float64(len(rows))
		innerC.Tuples += float64(len(rows))
		innerC.Comparisons += float64(len(rows)) * atoms
		for j := range rows {
			if match(int(rows[j])) {
				if err := e.add(out, count, left.Row(i), rows[j:j+1]); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	innerMatches := float64(out.NumRows())
	innerC.Output += innerMatches
	innerCost := innerC.Cost()
	inner.TrueRows = innerMatches
	inner.TrueCost = innerCost
	c.Output += innerMatches
	return out, lc + innerCost, nil
}

func (e *Engine) sortOp(n *plan.Node, c *Counters) (*Relation, float64, error) {
	in, ic, err := e.exec(n.Left, false)
	if err != nil {
		return nil, 0, err
	}
	if len(n.SortKeys) == 0 {
		return in, ic, nil
	}
	k, err := e.keyColumn(in, n.SortKeys[0])
	if err != nil {
		return nil, 0, err
	}
	out := &Relation{Tables: in.Tables, Width: in.Width, Data: make([]int32, 0, len(in.Data))}
	for _, i := range sortedOrder(k) {
		out.Data = append(out.Data, in.Row(i)...)
	}
	nf := float64(in.NumRows())
	c.Comparisons += nf * math.Log2(nf+2)
	c.SortedRows += nf
	c.Output += nf
	return out, ic, nil
}

// aggregate is a plain Aggregate: one output row, charged one touch of
// every input tuple per aggregate. The aggregate values are irrelevant to
// cost and cardinality training, so its input is counted, not built.
func (e *Engine) aggregate(n *plan.Node, c *Counters) (*Relation, float64, error) {
	in, ic, err := e.exec(n.Left, true)
	if err != nil {
		return nil, 0, err
	}
	c.Tuples += float64(in.NumRows()) * math.Max(1, float64(len(n.Aggs)))
	c.Output++
	return &Relation{rows: 1}, ic, nil
}
