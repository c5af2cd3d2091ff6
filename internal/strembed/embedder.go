package strembed

import (
	"sort"
	"strings"

	"costest/internal/dataset"
)

// StringEncoder maps a query string (possibly a LIKE pattern containing %)
// to a fixed-dimension vector. Implementations: the trained Embedder and the
// HashEmbedder baseline.
type StringEncoder interface {
	Dim() int
	Embed(pattern string) []float64
}

// Config controls Embedder construction.
type Config struct {
	Dim int
	// UseRules enables rule generation/selection; without it the dictionary
	// holds only the full string values of the referenced columns (the
	// paper's "EmbNR" variant).
	UseRules bool
	// Seed drives skip-gram training.
	Seed int64
}

// Build's fixed bounds.
const (
	// dictBudget bounds the substring dictionary size (Algorithm 1's B).
	dictBudget = 20000
	// maxValuesPerColumn caps the distinct values enumerated per column.
	maxValuesPerColumn = 4000
	// maxPairsPerString caps (workload string, value) candidate pairs.
	maxPairsPerString = 3
)

// Embedder is the trained string-embedding index: skip-gram vectors behind
// prefix and suffix tries (Section 5.3).
type Embedder struct {
	dim     int
	vectors [][]float64
	exact   map[string]int
	prefix  *Trie
	suffix  *Trie
	// Rules kept for inspection/reporting.
	Rules    []Rule
	DictSize int
}

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// Build trains an Embedder for the workload strings over db. Only the
// columns referenced by ws contribute values and sentences.
func Build(db *dataset.DB, ws []WorkloadString, cfg Config) *Embedder {
	e := &Embedder{dim: cfg.Dim, exact: map[string]int{}, prefix: NewTrie(), suffix: NewTrie()}

	// Referenced columns and their distinct values.
	type colKey struct{ table, column string }
	colSet := map[colKey]bool{}
	for _, w := range ws {
		colSet[colKey{w.Table, w.Column}] = true
	}
	cols := make([]colKey, 0, len(colSet))
	for k := range colSet {
		cols = append(cols, k)
	}
	sort.Slice(cols, func(i, j int) bool {
		return cols[i].table+"."+cols[i].column < cols[j].table+"."+cols[j].column
	})

	valuesByColumn := map[string][]string{}
	for _, c := range cols {
		tab := db.Table(c.table)
		if tab == nil {
			continue
		}
		col := tab.StrColumn(c.column)
		if col == nil {
			continue
		}
		seen := map[string]bool{}
		var vals []string
		for _, v := range col {
			if v == "" || seen[v] {
				continue
			}
			seen[v] = true
			vals = append(vals, v)
			if len(vals) >= maxValuesPerColumn {
				break
			}
		}
		valuesByColumn[c.table+"."+c.column] = vals
	}

	// Dictionary: full values always; rule-extracted substrings if enabled.
	dict := map[string]bool{}
	for _, vals := range valuesByColumn {
		for _, v := range vals {
			dict[v] = true
		}
	}
	// perValueTokens maps "table.column" -> value -> extracted tokens.
	perValueTokens := map[string]map[string][]string{}
	if cfg.UseRules {
		var cands []Rule
		for _, w := range ws {
			vals := valuesByColumn[w.Table+"."+w.Column]
			pairs := 0
			for _, v := range vals {
				if !matchesKind(w, v) {
					continue
				}
				cands = append(cands, CandidateRules(w, v)...)
				pairs++
				if pairs >= maxPairsPerString {
					break
				}
			}
		}
		cands = dedupRules(cands)
		sel := SelectRules(cands, ws, valuesByColumn, dictBudget)
		e.Rules = sel.Rules
		for s := range sel.Dict {
			dict[s] = true
		}
		// Apply selected rules per value for sentence construction.
		for _, r := range sel.Rules {
			key := r.Table + "." + r.Column
			m := perValueTokens[key]
			if m == nil {
				m = map[string][]string{}
				perValueTokens[key] = m
			}
			for _, v := range valuesByColumn[key] {
				for _, s := range r.Extract(v) {
					m[v] = append(m[v], s)
				}
			}
		}
	}
	e.DictSize = len(dict)

	// Sentences: per tuple, the value plus its extracted substrings across
	// all referenced string columns of the table (coexistence in a tuple).
	colsByTable := map[string][]string{}
	for _, c := range cols {
		colsByTable[c.table] = append(colsByTable[c.table], c.column)
	}
	tables := make([]string, 0, len(colsByTable))
	for table := range colsByTable {
		tables = append(tables, table)
	}
	sort.Strings(tables) // skip-gram training depends on sentence order
	var sentences [][]string
	for _, table := range tables {
		columns := colsByTable[table]
		tab := db.Table(table)
		if tab == nil {
			continue
		}
		colVecs := make([][]string, 0, len(columns))
		keys := make([]string, 0, len(columns))
		for _, c := range columns {
			if v := tab.StrColumn(c); v != nil {
				colVecs = append(colVecs, v)
				keys = append(keys, table+"."+c)
			}
		}
		for row := 0; row < tab.NumRows; row++ {
			var sent []string
			for i, vec := range colVecs {
				v := vec[row]
				if v == "" {
					continue
				}
				if dict[v] {
					sent = append(sent, v)
				}
				if m := perValueTokens[keys[i]]; m != nil {
					sent = append(sent, m[v]...)
				}
			}
			if len(sent) >= 2 {
				sentences = append(sentences, dedupStrings(sent))
			}
		}
	}

	sg := TrainSkipGram(sentences, cfg.Dim, cfg.Seed)

	// Index every dictionary token that received a vector; tokens unseen in
	// sentences get deterministic pseudo-vectors derived from the hash
	// embedding so lookups never silently fail.
	hash := HashEmbedder{DimN: cfg.Dim}
	dictTokens := make([]string, 0, len(dict))
	for s := range dict {
		dictTokens = append(dictTokens, s)
	}
	sort.Strings(dictTokens)
	for _, s := range dictTokens {
		var vec []float64
		if v := sg.Vector(s); v != nil {
			vec = v
		} else {
			vec = hash.Embed(s)
		}
		id := len(e.vectors)
		e.vectors = append(e.vectors, vec)
		e.exact[s] = id
		e.prefix.Insert(s, id)
		e.suffix.Insert(reverseString(s), id)
	}
	return e
}

func matchesKind(w WorkloadString, v string) bool {
	switch w.Kind {
	case MatchExact:
		return v == w.S
	case MatchPrefix:
		return strings.HasPrefix(v, w.S)
	case MatchSuffix:
		return strings.HasSuffix(v, w.S)
	default:
		return strings.Contains(v, w.S)
	}
}

// Embed maps a query string or LIKE pattern to its representation using the
// paper's online search: exact hit, else longest prefix and/or suffix match
// depending on the pattern anchoring, picking the longest match. Unknown
// strings return the zero vector.
func (e *Embedder) Embed(pattern string) []float64 {
	out := make([]float64, e.dim)
	core, hasPrefixWild, hasSuffixWild := patternCore(pattern)
	if core == "" {
		return out
	}
	if id, ok := e.exact[core]; ok {
		copy(out, e.vectors[id])
		return out
	}
	bestID, bestLen := -1, 0
	// Prefix search applies when the pattern anchors the core at the start
	// (no leading %), or for containment searches (paper: try both).
	if !hasPrefixWild || hasSuffixWild {
		if id, l := e.prefix.LongestPrefix(core); id >= 0 && l > bestLen {
			bestID, bestLen = id, l
		}
	}
	if hasPrefixWild || !hasSuffixWild {
		if id, l := e.suffix.LongestPrefix(reverseString(core)); id >= 0 && l > bestLen {
			bestID, bestLen = id, l
		}
	}
	if bestID >= 0 {
		copy(out, e.vectors[bestID])
	}
	return out
}

// patternCore extracts the longest literal segment of a LIKE pattern and
// reports whether a wildcard precedes/follows it.
func patternCore(pattern string) (core string, prefixWild, suffixWild bool) {
	if !strings.Contains(pattern, "%") {
		return pattern, false, false
	}
	parts := strings.Split(pattern, "%")
	best, bestIdx := "", -1
	for i, p := range parts {
		if len(p) > len(best) {
			best, bestIdx = p, i
		}
	}
	if bestIdx < 0 || best == "" {
		return "", true, true
	}
	return best, bestIdx > 0, bestIdx < len(parts)-1
}

// PatternParts exposes LIKE-pattern analysis: the longest literal segment
// and whether a wildcard precedes/follows it.
func PatternParts(pattern string) (core string, prefixWild, suffixWild bool) {
	return patternCore(pattern)
}
