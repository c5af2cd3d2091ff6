package serve

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"costest/internal/feature"
)

// TestGoldenFeatureBits pins the feature bits the request path builds for
// the benchmark's two body shapes, decoded and encoded as the handler does
// (one recycled decoder, one recycled arena): the FNV-64a hash of every
// float of every encoded node and the child indices beside them. A change to
// where names are resolved, or to anything else between the body and the
// model's input, fails here if it moves a single feature bit.
func TestGoldenFeatureBits(t *testing.T) {
	const want = 0xd6755e9bece3c36d
	single, enum64 := estimateBodies(t)
	h := fnv.New64a()
	var dec decoder
	var arena feature.Arena
	for _, body := range [][]byte{single, enum64, single} {
		roots, _, err := dec.decode(testDB.Schema, body)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := testEnc.EncodeAll(roots, &arena)
		if err != nil {
			t.Fatal(err)
		}
		hashFeatures(h, eps)
	}
	if h.Sum64() != want {
		t.Fatalf("the benchmark bodies' features hash to %#x, want %#x", h.Sum64(), uint64(want))
	}
}

// hashFeatures writes the bits of every encoded feature of eps to h — Op,
// Meta, Bitmap and predicate vectors, with the child indices of plan and
// predicate nodes — each list behind its length. ID is left out: its seeds
// are drawn per process.
func hashFeatures(h hash.Hash64, eps []*feature.EncodedPlan) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	floats := func(v []float64) {
		put(uint64(len(v)))
		for _, f := range v {
			put(math.Float64bits(f))
		}
	}
	for _, ep := range eps {
		put(uint64(len(ep.Nodes)))
		for _, n := range ep.Nodes {
			floats(n.Op)
			floats(n.Meta)
			floats(n.Bitmap)
			put(uint64(len(n.Pred.Nodes)))
			for _, p := range n.Pred.Nodes {
				floats(p.Vec)
				put(uint64(int64(p.Left)))
				put(uint64(int64(p.Right)))
			}
			put(uint64(int64(n.Left)))
			put(uint64(int64(n.Right)))
		}
	}
}
