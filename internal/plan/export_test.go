package plan

// SampleTree exposes the internal tests' sample plan to the external ones.
var SampleTree = sampleTree

// Count returns the number of nodes in the subtree.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// Tables returns the base tables covered by the subtree, in DFS order.
func (n *Node) Tables() []string {
	var out []string
	n.Walk(func(m *Node) {
		if m.Type.IsScan() {
			out = append(out, m.Table)
		}
	})
	return out
}
