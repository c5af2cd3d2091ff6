// Package plantest holds the identity differential for plan.ID, shared by the
// tests of every package that builds plans.
package plantest

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"costest/internal/plan"
	"costest/internal/sqlpred"
)

// CheckIDs fails t unless any two subtrees of roots have one plan.ID exactly
// when they are reflect.DeepEqual once their Est* and True* annotations are
// cleared and their float literals compared by bits, as the ID compares them.
func CheckIDs(t testing.TB, roots ...*plan.Node) {
	t.Helper()
	var subs, stripped []*plan.Node
	var ids []plan.ID
	for _, root := range roots {
		root.Walk(func(n *plan.Node) { subs, stripped = append(subs, n), append(stripped, strip(n)) })
		ids = root.AppendIDs(ids)
	}
	for i := range subs {
		for j := range i {
			if equal := reflect.DeepEqual(stripped[i], stripped[j]); equal != (ids[i] == ids[j]) {
				t.Fatalf("subtrees equal: %v, IDs equal: %v\n%s\n%s", equal, !equal, subs[i], subs[j])
			}
		}
	}
}

// strip copies n without its annotations. reflect.DeepEqual compares floats
// with ==, under which 0 equals -0 and NaN equals nothing, so each literal's
// bits move into its string operand.
func strip(n *plan.Node) *plan.Node {
	if n == nil {
		return nil
	}
	c := *n
	c.EstRows, c.EstCost, c.TrueRows, c.TrueCost = 0, 0, 0, 0
	c.Filter = stripPred(n.Filter)
	if n.IndexCond != nil {
		c.IndexCond = stripPred(n.IndexCond).(*sqlpred.Atom)
	}
	c.Left, c.Right = strip(n.Left), strip(n.Right)
	return &c
}

func stripPred(p sqlpred.Pred) sqlpred.Pred {
	switch p := p.(type) {
	case *sqlpred.Atom:
		a := *p
		a.NumVal, a.StrVal = 0, fmt.Sprintf("%x:%s", math.Float64bits(p.NumVal), p.StrVal)
		return &a
	case *sqlpred.Bool:
		return &sqlpred.Bool{Kind: p.Kind, Left: stripPred(p.Left), Right: stripPred(p.Right)}
	}
	return p
}
