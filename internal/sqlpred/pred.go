// Package sqlpred defines filter-predicate ASTs — atomic comparisons over
// numeric and string columns combined with AND/OR — together with their
// evaluation. The feature encoder walks the tree itself (§4.2 of the paper),
// so no linearized sequence is ever built.
package sqlpred

import (
	"fmt"
	"strings"
)

// Op is a comparison operator in an atomic predicate.
type Op int

// Operators. The paper draws numeric operators from {>,<,=,!=} and string
// operators from {=,!=,LIKE,NOT LIKE,IN}; <=/>= are included for
// completeness of the library API.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpLike
	OpNotLike
	OpIn
	NumOps // size of the operator one-hot space
)

var opNames = [...]string{"=", "!=", "<", ">", "<=", ">=", "LIKE", "NOT LIKE", "IN"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Pred is a predicate tree node: either *Atom or *Bool.
type Pred interface {
	fmt.Stringer
	isPred()
}

// Atom is an atomic predicate ⟨column, operator, operand⟩ on a single table.
type Atom struct {
	Table    string
	Column   string
	ColumnID int32 // 1 + the schema's column id, 0 while unresolved (see plan.Node)
	Op       Op
	// Exactly one operand family is used depending on the column type:
	NumVal float64  // numeric comparisons
	StrVal string   // string =/!=/LIKE/NOT LIKE (LIKE patterns use %)
	InVals []string // IN lists
	IsStr  bool     // operand kind
}

func (*Atom) isPred() {}

func (a *Atom) String() string {
	switch {
	case a.Op == OpIn:
		return fmt.Sprintf("%s.%s IN (%s)", a.Table, a.Column, strings.Join(a.InVals, ", "))
	case a.IsStr:
		return fmt.Sprintf("%s.%s %s '%s'", a.Table, a.Column, a.Op, a.StrVal)
	}
	return fmt.Sprintf("%s.%s %s %g", a.Table, a.Column, a.Op, a.NumVal)
}

// BoolKind is the connective of a compound predicate.
type BoolKind int

// Connectives. The paper's predicate embedding replaces AND with min pooling
// and OR with max pooling (Section 4.2.1).
const (
	And BoolKind = iota
	Or
)

func (k BoolKind) String() string {
	if k == And {
		return "AND"
	}
	return "OR"
}

// Bool is a binary AND/OR node.
type Bool struct {
	Kind        BoolKind
	Left, Right Pred
}

func (*Bool) isPred() {}

func (b *Bool) String() string { return fmt.Sprintf("(%s %s %s)", b.Left, b.Kind, b.Right) }

// Walk visits every atom of p in DFS (left-to-right) order.
func Walk(p Pred, f func(*Atom)) {
	switch n := p.(type) {
	case *Atom:
		f(n)
	case *Bool:
		Walk(n.Left, f)
		Walk(n.Right, f)
	case nil:
	default:
		panic(fmt.Sprintf("sqlpred: unknown node %T", p))
	}
}

// CountAtoms returns the number of atomic predicates in p.
func CountAtoms(p Pred) int {
	n := 0
	Walk(p, func(*Atom) { n++ })
	return n
}

// AndAll combines preds with left-deep AND nodes; nil for an empty slice.
func AndAll(preds ...Pred) Pred {
	return combine(And, preds)
}

func combine(kind BoolKind, preds []Pred) Pred {
	var out Pred
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = &Bool{Kind: kind, Left: out, Right: p}
		}
	}
	return out
}

// LikeMatch reports whether s matches the LIKE pattern, where '%' matches
// any (possibly empty) substring. '_' is not supported; the workloads in the
// paper only use '%'.
func LikeMatch(pattern, s string) bool {
	// The pattern is scanned in place: this runs once per row in predicate
	// evaluation, so it must not allocate.
	first := strings.IndexByte(pattern, '%')
	if first < 0 {
		return s == pattern
	}
	// Anchored prefix.
	if !strings.HasPrefix(s, pattern[:first]) {
		return false
	}
	s, pattern = s[first:], pattern[first+1:]
	// Anchored suffix, matched against what the prefix left over.
	last := strings.LastIndexByte(pattern, '%')
	suffix := pattern[last+1:]
	if !strings.HasSuffix(s, suffix) {
		return false
	}
	s = s[:len(s)-len(suffix)]
	// Middle parts must appear in order.
	mids := pattern[:max(last, 0)]
	for mids != "" {
		var mid string
		mid, mids, _ = strings.Cut(mids, "%")
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return true
}

// EvalAtomInt evaluates a numeric atom against value v.
func EvalAtomInt(a *Atom, v int64) bool {
	x := float64(v)
	switch a.Op {
	case OpEq:
		return x == a.NumVal
	case OpNe:
		return x != a.NumVal
	case OpLt:
		return x < a.NumVal
	case OpGt:
		return x > a.NumVal
	case OpLe:
		return x <= a.NumVal
	case OpGe:
		return x >= a.NumVal
	default:
		return false
	}
}

// EvalAtomStr evaluates a string atom against value v.
func EvalAtomStr(a *Atom, v string) bool {
	switch a.Op {
	case OpEq:
		return v == a.StrVal
	case OpNe:
		return v != a.StrVal
	case OpLike:
		return LikeMatch(a.StrVal, v)
	case OpNotLike:
		return !LikeMatch(a.StrVal, v)
	case OpIn:
		for _, s := range a.InVals {
			if v == s {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// ColumnAccessor provides column vectors for predicate compilation. A nil
// slice means the column does not exist with that type.
type ColumnAccessor interface {
	IntColumn(name string) []int64
	StrColumn(name string) []string
}

// Compile lowers a single-table predicate into a row-index filter over the
// accessor's column vectors. Every atom must reference the given table.
func Compile(p Pred, table string, acc ColumnAccessor) (func(row int) bool, error) {
	switch n := p.(type) {
	case nil:
		return func(int) bool { return true }, nil
	case *Atom:
		if n.Table != table {
			return nil, fmt.Errorf("sqlpred: atom on %s.%s compiled against table %s", n.Table, n.Column, table)
		}
		if n.IsStr {
			col := acc.StrColumn(n.Column)
			if col == nil {
				return nil, fmt.Errorf("sqlpred: no string column %s.%s", table, n.Column)
			}
			a := n
			switch a.Op {
			case OpEq:
				v := a.StrVal
				return func(row int) bool { return col[row] == v }, nil
			case OpNe:
				v := a.StrVal
				return func(row int) bool { return col[row] != v }, nil
			default:
				return func(row int) bool { return EvalAtomStr(a, col[row]) }, nil
			}
		}
		col := acc.IntColumn(n.Column)
		if col == nil {
			return nil, fmt.Errorf("sqlpred: no int column %s.%s", table, n.Column)
		}
		a := n
		return func(row int) bool { return EvalAtomInt(a, col[row]) }, nil
	case *Bool:
		l, err := Compile(n.Left, table, acc)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.Right, table, acc)
		if err != nil {
			return nil, err
		}
		if n.Kind == And {
			return func(row int) bool { return l(row) && r(row) }, nil
		}
		return func(row int) bool { return l(row) || r(row) }, nil
	default:
		return nil, fmt.Errorf("sqlpred: unknown node %T", p)
	}
}
