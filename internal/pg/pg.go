// Package pg implements the PostgreSQL-style baseline estimator the paper
// compares against (PGCard / PGCost): histogram-based selectivity with
// attribute independence, distinct-count join selectivity, and the classic
// page/CPU cost model with tunable GUC weights. A calibration step derives
// an estimator whose cost units are the executor's milliseconds, mirroring
// the paper's "we have tuned the factor of page IO so that the unit of the
// estimated cost equals the unit of time".
package pg

import (
	"math"

	"costest/internal/exec"
	"costest/internal/plan"
	"costest/internal/sqlpred"
	"costest/internal/stats"
)

// Estimator annotates plans with PostgreSQL-style cardinality and cost
// estimates.
type Estimator struct {
	Cat *stats.Catalog

	// Cost GUCs (PostgreSQL defaults).
	SeqPageCost       float64
	RandomPageCost    float64
	CPUTupleCost      float64
	CPUIndexTupleCost float64
	CPUOperatorCost   float64

	// UnitMS converts raw cost units into the executor's milliseconds;
	// defaults to 1, set on the copy Calibrated returns.
	UnitMS float64
}

// New returns an estimator with PostgreSQL's default cost weights.
func New(cat *stats.Catalog) *Estimator {
	return &Estimator{
		Cat:               cat,
		SeqPageCost:       1.0,
		RandomPageCost:    4.0,
		CPUTupleCost:      0.01,
		CPUIndexTupleCost: 0.005,
		CPUOperatorCost:   0.0025,
		UnitMS:            1.0,
	}
}

// Annotate fills EstRows and EstCost (cumulative, in calibrated ms) for
// every node of the plan, bottom-up, never looking at true values.
func (e *Estimator) Annotate(root *plan.Node) {
	e.annotate(root)
}

// annotate returns (rows, cumulative raw cost).
func (e *Estimator) annotate(n *plan.Node) (rows, cost float64) {
	if n == nil {
		return 0, 0
	}
	switch n.Type {
	case plan.SeqScan:
		rows, cost = e.seqScan(n)
	case plan.IndexScan:
		rows, cost = e.indexScan(n, 1)
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoop:
		rows, cost = e.join(n)
	case plan.Sort:
		inRows, inCost := e.annotate(n.Left)
		rows = inRows
		cost = inCost + comparisonCost(inRows)*e.CPUOperatorCost + e.CPUTupleCost*inRows
	case plan.Aggregate:
		inRows, inCost := e.annotate(n.Left)
		rows = 1
		cost = inCost + e.CPUTupleCost*inRows*math.Max(1, float64(len(n.Aggs)))
	}
	if rows < 1 {
		rows = 1
	}
	n.EstRows = rows
	n.EstCost = cost * e.UnitMS
	return rows, cost
}

func comparisonCost(n float64) float64 {
	return 2 * n * math.Log2(n+2)
}

func (e *Estimator) tableRows(table string) float64 {
	if ts := e.Cat.Table(table); ts != nil {
		return float64(ts.RowCount)
	}
	return 1000
}

func (e *Estimator) seqScan(n *plan.Node) (rows, cost float64) {
	total := e.tableRows(n.Table)
	sel := e.Cat.PredSelectivity(n.Filter)
	rows = total * sel
	pages := math.Ceil(total / exec.RowsPerPage)
	atoms := float64(sqlpred.CountAtoms(n.Filter))
	cost = e.SeqPageCost*pages + e.CPUTupleCost*total + e.CPUOperatorCost*total*atoms
	return rows, cost
}

// indexScan estimates a filter-driven or parameterized index scan. loops is
// the number of outer probes (1 for filter-driven scans).
func (e *Estimator) indexScan(n *plan.Node, loops float64) (rows, cost float64) {
	total := e.tableRows(n.Table)
	var matched float64 // rows fetched from the index per loop
	switch {
	case n.IndexCond != nil:
		matched = total * e.Cat.AtomSelectivity(n.IndexCond)
	case n.ParamJoin != nil:
		// Equality probe: total/ndv rows per outer tuple.
		innerRef := n.ParamJoin.Left
		if innerRef.Table != n.Table {
			innerRef = n.ParamJoin.Right
		}
		matched = total / e.columnNDV(innerRef.Table, innerRef.Column)
	default:
		matched = total
	}
	residual := e.Cat.PredSelectivity(n.Filter)
	rows = matched * residual
	atoms := float64(sqlpred.CountAtoms(n.Filter))
	perLoop := e.RandomPageCost*math.Max(1, matched/exec.RowsPerPage*4) +
		e.CPUIndexTupleCost*matched +
		e.CPUTupleCost*matched +
		e.CPUOperatorCost*(matched*atoms+math.Log2(total+2))
	cost = perLoop * loops
	return rows, cost
}

func (e *Estimator) columnNDV(table, column string) float64 {
	cs := e.Cat.Column(table, column)
	if cs == nil || cs.NDV == 0 {
		return 1
	}
	return float64(cs.NDV)
}

// joinSelectivity is PostgreSQL's eqjoinsel: 1/max(ndv_left, ndv_right).
func (e *Estimator) joinSelectivity(c *plan.JoinCond) float64 {
	l := e.columnNDV(c.Left.Table, c.Left.Column)
	r := e.columnNDV(c.Right.Table, c.Right.Column)
	return 1 / math.Max(math.Max(l, r), 1)
}

func (e *Estimator) join(n *plan.Node) (rows, cost float64) {
	lRows, lCost := e.annotate(n.Left)

	// Index nested loop: the inner parameterized scan is costed per loop.
	if n.Type == plan.NestedLoop && n.Right != nil &&
		n.Right.Type == plan.IndexScan && n.Right.ParamJoin != nil {
		innerRows, innerCost := e.indexScan(n.Right, math.Max(lRows, 1))
		n.Right.EstRows = math.Max(innerRows, 1)
		n.Right.EstCost = innerCost * e.UnitMS
		rows = lRows * innerRows
		cost = lCost + innerCost + e.CPUTupleCost*rows
		return rows, cost
	}

	rRows, rCost := e.annotate(n.Right)
	sel := 1.0
	if n.JoinCond != nil {
		sel = e.joinSelectivity(n.JoinCond)
	}
	rows = lRows * rRows * sel
	switch n.Type {
	case plan.HashJoin:
		cost = lCost + rCost +
			e.CPUOperatorCost*(lRows+rRows) + // hashing both sides
			e.CPUTupleCost*(rRows+rows) // build + emit
	case plan.MergeJoin:
		cost = lCost + rCost +
			e.CPUOperatorCost*(comparisonCost(lRows)+comparisonCost(rRows)+lRows+rRows) +
			e.CPUTupleCost*rows
	default: // naive nested loop
		cost = lCost + rCost + e.CPUOperatorCost*lRows*rRows + e.CPUTupleCost*rows
	}
	return rows, cost
}

// EstimateCard returns the PG cardinality estimate for the query-level
// cardinality (the topmost non-aggregate node), annotating the plan.
func (e *Estimator) EstimateCard(root *plan.Node) float64 {
	e.Annotate(root)
	return root.CardinalityNode().EstRows
}

// EstimateCost returns the PG cost estimate for the whole plan in calibrated
// milliseconds, annotating the plan.
func (e *Estimator) EstimateCost(root *plan.Node) float64 {
	e.Annotate(root)
	return root.EstCost
}

// Calibrated returns a copy of e whose UnitMS aligns raw cost units with the
// executor's milliseconds: the geometric mean of true/estimated ratios over a
// calibration set of executed plans (plans must carry TrueCost; with none,
// the copy keeps e's unit). e itself is unchanged, so a planner or labeler
// that shares it plans and annotates the same way before and after; only
// the cost estimates read from the copy are calibrated.
func (e *Estimator) Calibrated(roots []*plan.Node) *Estimator {
	c := *e
	c.UnitMS = 1
	var sumLog float64
	var n int
	for _, r := range roots {
		if r.TrueCost <= 0 {
			continue
		}
		raw := c.EstimateCost(r)
		if raw <= 0 {
			continue
		}
		sumLog += math.Log(r.TrueCost / raw)
		n++
	}
	if n == 0 {
		c.UnitMS = e.UnitMS
	} else {
		c.UnitMS = math.Exp(sumLog / float64(n))
	}
	return &c
}
