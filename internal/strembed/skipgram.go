package strembed

import (
	"math"
	"math/rand"
	"sort"

	"costest/internal/tensor"
)

// Skip-gram training settings (Mikolov-style skip-gram with negative
// sampling), which the paper uses to learn coexistence-aware string
// representations from per-tuple token "sentences" (Section 5.1).
const (
	sgEpochs      = 2
	sgNegSamples  = 4
	sgLearnRate   = 0.025
	sgMaxSentence = 16 // sentences are truncated to bound cost
)

// SkipGram holds a trained embedding table.
type SkipGram struct {
	Dim     int
	Vocab   map[string]int
	Words   []string
	Vectors [][]float64 // input vectors; one per vocab word
}

// TrainSkipGram learns dim-wide embeddings from sentences (each a bag of
// tokens that co-occur in one tuple). Training is deterministic in seed.
func TrainSkipGram(sentences [][]string, dim int, seed int64) *SkipGram {
	rng := rand.New(rand.NewSource(seed))

	// Vocabulary with counts.
	counts := map[string]int{}
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words) // deterministic vocab order
	vocab := make(map[string]int, len(words))
	for i, w := range words {
		vocab[w] = i
	}
	sg := &SkipGram{Dim: dim, Vocab: vocab, Words: words}
	if len(words) == 0 {
		return sg
	}

	// Input and output vector tables.
	sg.Vectors = make([][]float64, len(words))
	out := make([][]float64, len(words))
	for i := range sg.Vectors {
		v := make([]float64, dim)
		for j := range v {
			v[j] = (rng.Float64() - 0.5) / float64(dim)
		}
		sg.Vectors[i] = v
		out[i] = make([]float64, dim)
	}

	// Unigram^(3/4) negative-sampling table.
	negTable := buildNegTable(words, counts)

	grad := make([]float64, dim)
	totalSteps := sgEpochs * len(sentences)
	step := 0
	for epoch := 0; epoch < sgEpochs; epoch++ {
		for _, sent := range sentences {
			step++
			// Linear learning-rate decay with a floor.
			lr := max(sgLearnRate*(1-float64(step)/float64(totalSteps+1)), sgLearnRate*0.05)
			ids := tokenIDs(sent, vocab, sgMaxSentence)
			for i, center := range ids {
				for j, ctx := range ids {
					if i == j {
						continue
					}
					trainPair(sg.Vectors[center], out, ctx, negTable, rng, sgNegSamples, lr, grad)
				}
			}
		}
	}
	return sg
}

func tokenIDs(sent []string, vocab map[string]int, maxLen int) []int {
	ids := make([]int, 0, len(sent))
	for _, w := range sent {
		if id, ok := vocab[w]; ok {
			ids = append(ids, id)
			if len(ids) >= maxLen {
				break
			}
		}
	}
	return ids
}

func buildNegTable(words []string, counts map[string]int) []int32 {
	const tableSize = 1 << 16
	table := make([]int32, 0, tableSize)
	pows := make([]float64, len(words))
	for i, w := range words {
		pows[i] = math.Pow(float64(counts[w]), 0.75)
	}
	total := tensor.Sum(pows)
	for i := range words {
		n := int(pows[i] / total * tableSize)
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			table = append(table, int32(i))
		}
	}
	return table
}

// trainPair applies one SGNS update: positive (center, ctx) plus negatives.
func trainPair(center []float64, out [][]float64, ctx int, negTable []int32,
	rng *rand.Rand, negSamples int, lr float64, grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	for k := 0; k <= negSamples; k++ {
		var target int
		var label float64
		if k == 0 {
			target, label = ctx, 1
		} else {
			target = int(negTable[rng.Intn(len(negTable))])
			if target == ctx {
				continue
			}
			label = 0
		}
		o := out[target]
		g := (label - sigmoid(tensor.Dot(center, o))) * lr
		for i := range center {
			grad[i] += g * o[i]
			o[i] += g * center[i]
		}
	}
	for i := range center {
		center[i] += grad[i]
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Vector returns the embedding of a word, or nil.
func (s *SkipGram) Vector(w string) []float64 {
	if id, ok := s.Vocab[w]; ok {
		return s.Vectors[id]
	}
	return nil
}

// Similarity returns the cosine similarity of two vocabulary words (0 when
// either is missing).
func (s *SkipGram) Similarity(a, b string) float64 {
	va, vb := s.Vector(a), s.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	dot := tensor.Dot(va, vb)
	na := tensor.Dot(va, va)
	nb := tensor.Dot(vb, vb)
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
