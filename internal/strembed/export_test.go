package strembed

// Len counts the stored strings.
func (t *Trie) Len() int { return countTerminals(t.root) }

func countTerminals(n *trieNode) int {
	c := 0
	if n.vecID >= 0 {
		c++
	}
	for _, child := range n.children {
		c += countTerminals(child)
	}
	return c
}
