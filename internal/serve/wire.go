package serve

import (
	"fmt"
	"strings"

	"costest/internal/plan"
	"costest/internal/sqlpred"
)

// The wire plan format: a JSON representation of the physical plan algebra
// (internal/plan) that an optimizer posts to /estimate. It mirrors the plan
// tree one-to-one — operators by name, predicates as atom/bool trees — and
// decodes with full validation, so malformed requests die at the HTTP
// boundary with a 400 instead of reaching the scheduler.

// WirePlan is one plan node.
type WirePlan struct {
	// Op names the physical operator: seqscan, indexscan, hashjoin,
	// mergejoin, nestedloop, sort, aggregate.
	Op        string    `json:"op"`
	Table     string    `json:"table,omitempty"`
	Index     string    `json:"index,omitempty"`
	Filter    *WirePred `json:"filter,omitempty"`
	IndexCond *WireAtom `json:"index_cond,omitempty"`
	Join      *WireJoin `json:"join,omitempty"`
	ParamJoin *WireJoin `json:"param_join,omitempty"`
	SortKeys  []WireCol `json:"sort_keys,omitempty"`
	Aggs      []WireAgg `json:"aggs,omitempty"`
	Left      *WirePlan `json:"left,omitempty"`
	Right     *WirePlan `json:"right,omitempty"`
}

// WirePred is a predicate tree node: exactly one of Atom or (Bool, Left,
// Right) is set.
type WirePred struct {
	Bool  string    `json:"bool,omitempty"` // "and" | "or"
	Left  *WirePred `json:"left,omitempty"`
	Right *WirePred `json:"right,omitempty"`
	Atom  *WireAtom `json:"atom,omitempty"`
}

// WireAtom is one atomic predicate ⟨column, operator, operand⟩.
type WireAtom struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	// Op is one of: =, !=, <, >, <=, >=, like, "not like", in.
	Op string `json:"op"`
	// Exactly one operand family, mirroring sqlpred.Atom.
	Num *float64 `json:"num,omitempty"`
	Str *string  `json:"str,omitempty"`
	In  []string `json:"in,omitempty"`
}

// WireJoin is an equi-join condition.
type WireJoin struct {
	Left  WireCol `json:"left"`
	Right WireCol `json:"right"`
}

// WireCol names a column.
type WireCol struct {
	Table  string `json:"table"`
	Column string `json:"column"`
}

// WireAgg is one output aggregate.
type WireAgg struct {
	Func string   `json:"func"` // min | max | count
	Col  *WireCol `json:"col,omitempty"`
}

var wireOps = map[string]plan.NodeType{
	"seqscan":    plan.SeqScan,
	"indexscan":  plan.IndexScan,
	"hashjoin":   plan.HashJoin,
	"mergejoin":  plan.MergeJoin,
	"nestedloop": plan.NestedLoop,
	"sort":       plan.Sort,
	"aggregate":  plan.Aggregate,
}

var wirePlanOps = func() map[plan.NodeType]string {
	m := make(map[plan.NodeType]string, len(wireOps))
	for name, t := range wireOps {
		m[t] = name
	}
	return m
}()

var wireAtomOps = map[string]sqlpred.Op{
	"=":        sqlpred.OpEq,
	"!=":       sqlpred.OpNe,
	"<":        sqlpred.OpLt,
	">":        sqlpred.OpGt,
	"<=":       sqlpred.OpLe,
	">=":       sqlpred.OpGe,
	"like":     sqlpred.OpLike,
	"not like": sqlpred.OpNotLike,
	"in":       sqlpred.OpIn,
}

// Size bounds on one wire plan. Subtree signatures are Θ(nodes × depth)
// bytes, so without them a 1 MiB body of nested unary operators (~15k nodes)
// would cost hundreds of MB to encode. DecodeEstimate enforces them while it
// scans, WirePlan.Decode before it builds anything. The workloads' largest
// plans have 18 nodes, depth 11 and 9 predicate nodes.
const (
	MaxPlanNodes = 256 // plan nodes per plan
	MaxPlanDepth = 64  // plan tree height
	MaxPredNodes = 256 // predicate-tree nodes per plan node
	MaxInValues  = 256 // values per IN list
)

// The refusals for a plan past a bound; they name the limit, not the final
// count, because the scanning decoder stops at the first node past it.
var (
	errPlanNodes = fmt.Errorf("serve: plan has more than %d nodes", MaxPlanNodes)
	errPlanDepth = fmt.Errorf("serve: plan is more than %d levels deep", MaxPlanDepth)
	errPredNodes = fmt.Errorf("serve: a predicate has more than %d nodes", MaxPredNodes)
	errInValues  = fmt.Errorf("serve: an IN list has more than %d values", MaxInValues)
)

// Decode converts the wire plan into a plan.Node tree, validating size
// bounds, operator and predicate shapes. Schema validity (table/column
// existence) is checked downstream by the feature encoder against its
// catalog. The request path does not come through here — DecodeEstimate
// builds the same tree straight from the body — but every per-node rule is a
// helper the two share, and the differential test pins them to each other.
func (w *WirePlan) Decode() (*plan.Node, error) {
	if w == nil {
		return nil, fmt.Errorf("serve: empty plan")
	}
	var sz wireSize
	sz.plan(w, 1)
	switch {
	case sz.nodes > MaxPlanNodes:
		return nil, errPlanNodes
	case sz.depth > MaxPlanDepth:
		return nil, errPlanDepth
	case sz.preds > MaxPredNodes:
		return nil, errPredNodes
	case sz.in > MaxInValues:
		return nil, errInValues
	}
	return w.decode()
}

// wireSize measures a wire plan without building anything: node count and
// height of the plan tree, and the largest predicate tree and IN list in it.
type wireSize struct{ nodes, depth, preds, in int }

func (sz *wireSize) plan(w *WirePlan, depth int) {
	if w == nil {
		return
	}
	sz.nodes++
	sz.depth = max(sz.depth, depth)
	sz.preds = max(sz.preds, sz.pred(w.Filter))
	if w.IndexCond != nil {
		sz.in = max(sz.in, len(w.IndexCond.In))
	}
	sz.plan(w.Left, depth+1)
	sz.plan(w.Right, depth+1)
}

func (sz *wireSize) pred(w *WirePred) int {
	if w == nil {
		return 0
	}
	if w.Atom != nil {
		sz.in = max(sz.in, len(w.Atom.In))
	}
	return 1 + sz.pred(w.Left) + sz.pred(w.Right)
}

func (w *WirePlan) decode() (*plan.Node, error) {
	n := &plan.Node{Table: w.Table, Index: w.Index}
	var err error
	if w.Filter != nil {
		if n.Filter, err = w.Filter.decode(); err != nil {
			return nil, err
		}
	}
	if w.IndexCond != nil {
		if n.IndexCond, err = w.IndexCond.decode(); err != nil {
			return nil, err
		}
	}
	if w.Join != nil {
		n.JoinCond = &plan.JoinCond{Left: w.Join.Left.decode(), Right: w.Join.Right.decode()}
	}
	if w.ParamJoin != nil {
		n.ParamJoin = &plan.JoinCond{Left: w.ParamJoin.Left.decode(), Right: w.ParamJoin.Right.decode()}
	}
	for _, k := range w.SortKeys {
		n.SortKeys = append(n.SortKeys, k.decode())
	}
	for _, a := range w.Aggs {
		spec, err := a.decode()
		if err != nil {
			return nil, err
		}
		n.Aggs = append(n.Aggs, spec)
	}
	if w.Left != nil {
		if n.Left, err = w.Left.decode(); err != nil {
			return nil, err
		}
	}
	if w.Right != nil {
		if n.Right, err = w.Right.decode(); err != nil {
			return nil, err
		}
	}
	if err := finishNode(n, w.Op); err != nil {
		return nil, err
	}
	return n, nil
}

// finishNode types a plan node whose members are already in place and applies
// the per-node rules: a known operator (names are case-insensitive), a table
// on every scan, two inputs on a join, one on a sort or aggregate.
func finishNode(n *plan.Node, op string) error {
	t, ok := wireOps[strings.ToLower(op)]
	if !ok {
		return fmt.Errorf("serve: unknown operator %q", op)
	}
	n.Type = t
	switch {
	case t.IsScan() && n.Table == "":
		return fmt.Errorf("serve: %s without a table", op)
	case t.IsJoin() && (n.Left == nil || n.Right == nil):
		return fmt.Errorf("serve: %s needs two inputs", op)
	case (t == plan.Sort || t == plan.Aggregate) && n.Left == nil:
		return fmt.Errorf("serve: %s needs an input", op)
	}
	return nil
}

// predShape classifies a predicate node, which must set exactly one of atom
// or bool ("" counts as unset): an atom, or the named connective.
func predShape(hasAtom bool, connective string) (isAtom bool, kind sqlpred.BoolKind, err error) {
	switch {
	case hasAtom && connective == "":
		return true, 0, nil
	case hasAtom || connective == "":
		return false, 0, fmt.Errorf("serve: predicate node must set exactly one of atom or bool")
	}
	switch strings.ToLower(connective) {
	case "and":
		return false, sqlpred.And, nil
	case "or":
		return false, sqlpred.Or, nil
	}
	return false, 0, fmt.Errorf("serve: unknown connective %q", connective)
}

func (w *WirePred) decode() (sqlpred.Pred, error) {
	if w == nil {
		return nil, fmt.Errorf("serve: empty predicate node")
	}
	isAtom, kind, err := predShape(w.Atom != nil, w.Bool)
	if err != nil {
		return nil, err
	}
	if isAtom {
		// left/right beside an atom are ignored, not refused.
		return w.Atom.decode()
	}
	if w.Left == nil || w.Right == nil {
		return nil, fmt.Errorf("serve: %s needs two operands", w.Bool)
	}
	l, err := w.Left.decode()
	if err != nil {
		return nil, err
	}
	r, err := w.Right.decode()
	if err != nil {
		return nil, err
	}
	return &sqlpred.Bool{Kind: kind, Left: l, Right: r}, nil
}

func (w *WireAtom) decode() (*sqlpred.Atom, error) {
	a := &sqlpred.Atom{Table: w.Table, Column: w.Column}
	operands := 0
	if w.Num != nil {
		a.NumVal = *w.Num
		operands++
	}
	if w.Str != nil {
		a.StrVal, a.IsStr = *w.Str, true
		operands++
	}
	if len(w.In) > 0 {
		a.InVals, a.IsStr = w.In, true
		operands++
	}
	if err := finishAtom(a, w.Op, operands); err != nil {
		return nil, err
	}
	return a, nil
}

// finishAtom gives an atom whose column and operand are already in place its
// operator and applies the atom rules: a known operator (case-insensitive),
// a table and a column, exactly one of the three operand families, and
// an IN list if and only if the operator is IN.
func finishAtom(a *sqlpred.Atom, opName string, operands int) error {
	op, ok := wireAtomOps[strings.ToLower(opName)]
	switch {
	case !ok:
		return fmt.Errorf("serve: unknown predicate operator %q", opName)
	case a.Table == "" || a.Column == "":
		return fmt.Errorf("serve: predicate atom needs table and column")
	case operands != 1:
		return fmt.Errorf("serve: predicate atom on %s.%s needs exactly one operand (num, str or in)",
			a.Table, a.Column)
	case (op == sqlpred.OpIn) != (len(a.InVals) > 0):
		return fmt.Errorf("serve: operator %q and operand kind disagree on %s.%s", opName, a.Table, a.Column)
	}
	a.Op = op
	return nil
}

func (w WireCol) decode() plan.ColRef { return plan.ColRef{Table: w.Table, Column: w.Column} }

func (w WireAgg) decode() (plan.AggSpec, error) {
	f, err := aggFunc(w.Func)
	if err != nil {
		return plan.AggSpec{}, err
	}
	spec := plan.AggSpec{Func: f}
	if w.Col != nil {
		spec.Col = w.Col.decode()
	}
	return spec, nil
}

// aggFunc resolves an aggregate's wire name (case-insensitive).
func aggFunc(name string) (plan.AggFunc, error) {
	switch strings.ToLower(name) {
	case "min":
		return plan.AggMin, nil
	case "max":
		return plan.AggMax, nil
	case "count":
		return plan.AggCount, nil
	}
	return 0, fmt.Errorf("serve: unknown aggregate %q", name)
}

// EncodeWire converts a plan.Node tree into its wire form — the server's
// /samplez endpoint uses it to hand clients a valid example request, and
// round-tripping it through Decode is the format's own regression test.
func EncodeWire(n *plan.Node) *WirePlan {
	if n == nil {
		return nil
	}
	w := &WirePlan{Op: wirePlanOps[n.Type], Table: n.Table, Index: n.Index}
	w.Filter = encodeWirePred(n.Filter)
	if n.IndexCond != nil {
		w.IndexCond = encodeWireAtom(n.IndexCond)
	}
	if n.JoinCond != nil {
		w.Join = &WireJoin{Left: encodeWireCol(n.JoinCond.Left), Right: encodeWireCol(n.JoinCond.Right)}
	}
	if n.ParamJoin != nil {
		w.ParamJoin = &WireJoin{Left: encodeWireCol(n.ParamJoin.Left), Right: encodeWireCol(n.ParamJoin.Right)}
	}
	for _, k := range n.SortKeys {
		w.SortKeys = append(w.SortKeys, encodeWireCol(k))
	}
	for _, a := range n.Aggs {
		wa := WireAgg{Func: strings.ToLower(a.Func.String())}
		if a.Col != (plan.ColRef{}) {
			col := encodeWireCol(a.Col)
			wa.Col = &col
		}
		w.Aggs = append(w.Aggs, wa)
	}
	w.Left = EncodeWire(n.Left)
	w.Right = EncodeWire(n.Right)
	return w
}

func encodeWirePred(p sqlpred.Pred) *WirePred {
	switch n := p.(type) {
	case nil:
		return nil
	case *sqlpred.Atom:
		return &WirePred{Atom: encodeWireAtom(n)}
	case *sqlpred.Bool:
		return &WirePred{
			Bool:  strings.ToLower(n.Kind.String()),
			Left:  encodeWirePred(n.Left),
			Right: encodeWirePred(n.Right),
		}
	default:
		return nil
	}
}

func encodeWireAtom(a *sqlpred.Atom) *WireAtom {
	w := &WireAtom{Table: a.Table, Column: a.Column, Op: strings.ToLower(a.Op.String())}
	switch {
	case a.Op == sqlpred.OpIn:
		w.In = a.InVals
	case a.IsStr:
		s := a.StrVal
		w.Str = &s
	default:
		n := a.NumVal
		w.Num = &n
	}
	return w
}

func encodeWireCol(c plan.ColRef) WireCol { return WireCol{Table: c.Table, Column: c.Column} }
