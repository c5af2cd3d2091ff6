package serve

import (
	"fmt"

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

// The wire names of the plan operators, atom operators, connectives and
// aggregates, each list in the order of the enum it names (plan.NodeType,
// sqlpred.Op, sqlpred.BoolKind, plan.AggFunc). They match case-insensitively.
var (
	planOps  = newNames(true, "seqscan", "indexscan", "hashjoin", "mergejoin", "nestedloop", "sort", "aggregate")
	atomOps  = newNames(true, "=", "!=", "<", ">", "<=", ">=", "like", "not like", "in")
	boolOps  = newNames(true, "and", "or")
	aggFuncs = newNames(true, "min", "max", "count")
)

// names is a fixed list of names found with one probe: a name's slot is a
// hash of its length and its first and last bytes, and newNames panics if two
// names of a list share one. A list that folds case (its names are lower
// case) matches ASCII letters in either case; the others match exactly.
type names struct {
	list []string
	slot [64]int8 // 1 + the index in list of the name in the slot; 0: none
	fold bool
}

func newNames(fold bool, list ...string) *names {
	x := &names{list: list, fold: fold}
	for i, name := range list {
		h := nameSlot(name)
		if x.slot[h] != 0 {
			panic("serve: names " + name + " and " + list[x.slot[h]-1] + " share a slot")
		}
		x.slot[h] = int8(i + 1)
	}
	return x
}

func nameSlot[T string | []byte](name T) int {
	return (len(name) + 3*int(name[0]|0x20) + 5*int(name[len(name)-1]|0x20)) & 63
}

// find returns the index in x of name, or -1.
func find[T string | []byte](x *names, name T) int {
	if len(name) == 0 {
		return -1
	}
	k := int(x.slot[nameSlot(name)]) - 1
	if k < 0 || len(x.list[k]) != len(name) || !x.fold && string(name) != x.list[k] {
		return -1
	}
	for i := 0; x.fold && i < len(name); i++ {
		if c := name[i]; c != x.list[k][i] && (c < 'A' || c > 'Z' || c+'a'-'A' != x.list[k][i]) {
			return -1
		}
	}
	return k
}

// lookup is find, refusing a name that is not in x as an unknown what.
func lookup[T string | []byte](x *names, what string, name T) (int, error) {
	if k := find(x, name); k >= 0 {
		return k, nil
	}
	return -1, fmt.Errorf("serve: unknown %s %q", what, name)
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
	errNoFunc    = fmt.Errorf("serve: aggregate without a func")
)

// Decode converts the wire plan into a plan.Node tree, validating size
// bounds, operator and predicate shapes. It leaves the names unresolved:
// Encoder.Encode resolves them against the schema (Encoder.Resolve) before it
// encodes, refusing an unknown name there. The request path does not come
// through here — DecodeEstimate builds the same tree straight from the body,
// resolving each name as it reads it — but every per-node rule is a helper
// the two share, and the differential test pins DecodeEstimate to Decode
// followed by Resolve.
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
	op, err := lookup(planOps, "operator", w.Op)
	if err != nil {
		return nil, err
	}
	if err := finishNode(n, op); err != nil {
		return nil, err
	}
	return n, nil
}

// finishNode gives a plan node whose members are already in place its
// operator, the index of its name in planOps (-1: none), and applies the
// per-node rules: a table on every scan, two inputs on a join, one on a sort
// or aggregate.
func finishNode(n *plan.Node, k int) error {
	if k < 0 {
		return fmt.Errorf("serve: plan node without an op")
	}
	t, op := plan.NodeType(k), planOps.list[k]
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

// predShape checks that a predicate node sets exactly one of atom or bool (""
// counts as unset) and reports which.
func predShape(hasAtom, hasBool bool) (isAtom bool, err error) {
	if hasAtom == hasBool {
		return false, fmt.Errorf("serve: predicate node must set exactly one of atom or bool")
	}
	return hasAtom, nil
}

func (w *WirePred) decode() (sqlpred.Pred, error) {
	if w == nil {
		return nil, fmt.Errorf("serve: empty predicate node")
	}
	isAtom, err := predShape(w.Atom != nil, w.Bool != "")
	if err != nil {
		return nil, err
	}
	if isAtom {
		// left/right beside an atom are ignored, not refused.
		return w.Atom.decode()
	}
	kind, err := lookup(boolOps, "connective", w.Bool)
	switch {
	case err != nil:
		return nil, err
	case w.Left == nil || w.Right == nil:
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
	return &sqlpred.Bool{Kind: sqlpred.BoolKind(kind), Left: l, Right: r}, nil
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
	op, err := lookup(atomOps, "predicate operator", w.Op)
	if err != nil {
		return nil, err
	}
	if err := finishAtom(a, op, operands); err != nil {
		return nil, err
	}
	return a, nil
}

// finishAtom gives an atom whose column and operand are already in place its
// operator, the index of its name in atomOps (-1: none), and applies the
// atom rules: a table and a column, exactly one of the three operand
// families, and an IN list if and only if the operator is IN.
func finishAtom(a *sqlpred.Atom, k int, operands int) error {
	op := sqlpred.Op(k)
	switch {
	case k < 0:
		return fmt.Errorf("serve: predicate atom without an op")
	case a.Table == "" || a.Column == "":
		return fmt.Errorf("serve: predicate atom needs table and column")
	case operands != 1:
		return fmt.Errorf("serve: predicate atom on %s.%s needs exactly one operand (num, str or in)",
			a.Table, a.Column)
	case (op == sqlpred.OpIn) != (len(a.InVals) > 0):
		return fmt.Errorf("serve: operator %q and operand kind disagree on %s.%s", atomOps.list[op], a.Table, a.Column)
	}
	a.Op = op
	return nil
}

func (w WireCol) decode() plan.ColRef { return plan.ColRef{Table: w.Table, Column: w.Column} }

func (w WireAgg) decode() (plan.AggSpec, error) {
	f, err := lookup(aggFuncs, "aggregate", w.Func)
	if err != nil {
		return plan.AggSpec{}, err
	}
	spec := plan.AggSpec{Func: plan.AggFunc(f)}
	if w.Col != nil {
		spec.Col = w.Col.decode()
	}
	return spec, nil
}

// EncodeWire converts a plan.Node tree into its wire form — the server's
// /samplez endpoint uses it to hand clients a valid example request, and
// round-tripping it through Decode is the format's own regression test.
func EncodeWire(n *plan.Node) *WirePlan {
	if n == nil {
		return nil
	}
	w := &WirePlan{Op: planOps.list[n.Type], Table: n.Table, Index: n.Index}
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
		wa := WireAgg{Func: aggFuncs.list[a.Func]}
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
			Bool:  boolOps.list[n.Kind],
			Left:  encodeWirePred(n.Left),
			Right: encodeWirePred(n.Right),
		}
	default:
		return nil
	}
}

func encodeWireAtom(a *sqlpred.Atom) *WireAtom {
	w := &WireAtom{Table: a.Table, Column: a.Column, Op: atomOps.list[a.Op]}
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
