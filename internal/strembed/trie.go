package strembed

// Trie is a byte-wise prefix trie mapping strings to vector ids, supporting
// the paper's longest-prefix online search (Section 5.3). Suffix search uses
// a second trie over reversed strings.
type Trie struct {
	root *trieNode
}

type trieNode struct {
	children map[byte]*trieNode
	vecID    int32 // -1 when not a terminal
}

// NewTrie returns an empty trie.
func NewTrie() *Trie {
	return &Trie{root: &trieNode{vecID: -1}}
}

// Insert stores s with the given vector id, overwriting any previous id.
func (t *Trie) Insert(s string, vecID int) {
	n := t.root
	for i := 0; i < len(s); i++ {
		if n.children == nil {
			n.children = make(map[byte]*trieNode)
		}
		c := s[i]
		next := n.children[c]
		if next == nil {
			next = &trieNode{vecID: -1}
			n.children[c] = next
		}
		n = next
	}
	n.vecID = int32(vecID)
}

// Lookup returns the vector id of exactly s, or -1.
func (t *Trie) Lookup(s string) int {
	n := t.root
	for i := 0; i < len(s); i++ {
		n = n.children[s[i]]
		if n == nil {
			return -1
		}
	}
	return int(n.vecID)
}

// LongestPrefix returns the vector id of the longest stored string that is a
// prefix of s, with the match length; (-1, 0) when none exists.
func (t *Trie) LongestPrefix(s string) (vecID, length int) {
	vecID, length = -1, 0
	n := t.root
	if n.vecID >= 0 {
		vecID = int(n.vecID)
	}
	for i := 0; i < len(s); i++ {
		n = n.children[s[i]]
		if n == nil {
			return vecID, length
		}
		if n.vecID >= 0 {
			vecID, length = int(n.vecID), i+1
		}
	}
	return vecID, length
}

// reverseString reverses a byte string (dictionary entries are treated as
// byte sequences throughout).
func reverseString(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}
