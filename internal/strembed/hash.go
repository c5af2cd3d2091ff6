package strembed

// HashEmbedder is the paper's hash-bitmap baseline (Section 5): a zero
// vector where, for every character of the string, position hash(c) % dim is
// set to 1. It captures character overlap between strings but not
// co-occurrence, which is exactly the gap the learned embedding closes.
type HashEmbedder struct {
	DimN int
}

// Dim returns the bitmap length.
func (h HashEmbedder) Dim() int { return h.DimN }

// Embed returns the character hash bitmap of the pattern core (wildcards are
// ignored: they carry no character information).
func (h HashEmbedder) Embed(pattern string) []float64 {
	out := make([]float64, h.DimN)
	if h.DimN == 0 {
		return out
	}
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		if c == '%' {
			continue
		}
		// FNV-1a single-byte hash for stable spread.
		hash := uint32(2166136261)
		hash ^= uint32(c)
		hash *= 16777619
		out[hash%uint32(h.DimN)] = 1
	}
	return out
}

// ZeroEncoder embeds every string as an empty vector; numeric-only
// experiments use it so the atom encoding carries no string dimensions.
type ZeroEncoder struct{}

// Dim returns 0.
func (ZeroEncoder) Dim() int { return 0 }

// Embed returns nil.
func (ZeroEncoder) Embed(string) []float64 { return nil }
