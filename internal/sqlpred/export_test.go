package sqlpred

// OrAll combines preds with left-deep OR nodes; nil for an empty slice.
func OrAll(preds ...Pred) Pred {
	return combine(Or, preds)
}

// Depth returns the height of the predicate tree (an atom has depth 1).
func Depth(p Pred) int {
	switch n := p.(type) {
	case *Atom:
		return 1
	case *Bool:
		l, r := Depth(n.Left), Depth(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	case nil:
		return 0
	}
	return 0
}
