package serve

import (
	"encoding/json"
	"testing"
)

// FuzzWirePlanDecode drives the /estimate request path — JSON unmarshal into
// WirePlan, then structural Decode — with arbitrary bytes. This is the
// daemon's network-facing parser: any panic here is a remotely triggerable
// crash, so the contract is error-or-plan, never panic. Decoded plans are
// additionally pushed through the feature encoder, mirroring the full
// boundary validation the HTTP handler performs before admission.
func FuzzWirePlanDecode(f *testing.F) {
	// A realistic plan from the wire encoder itself plus shape edge cases.
	plans, _ := testCorpus(f, 401, 6)
	for _, p := range plans {
		b, err := json.Marshal(EncodeWire(p))
		if err != nil {
			f.Fatalf("marshal seed: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"op":"seqscan"}`))
	f.Add([]byte(`{"op":"hashjoin","left":{"op":"seqscan","table":"t"}}`))
	f.Add([]byte(`{"op":"seqscan","table":"t","filter":{"bool":"and","left":{"atom":{"table":"t","column":"c","op":"=","num":1}}}}`))
	f.Add([]byte(`{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"in","in":["a"]},"bool":"or"}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`not json`))
	// A deep chain of unary operators: the shape the size bounds exist for.
	deep, err := json.Marshal(wireUnaryChain(4 * MaxPlanDepth))
	if err != nil {
		f.Fatalf("marshal deep seed: %v", err)
	}
	f.Add(deep)

	f.Fuzz(func(t *testing.T, data []byte) {
		var wp WirePlan
		if err := json.Unmarshal(data, &wp); err != nil {
			return
		}
		root, err := wp.Decode()
		if err != nil {
			return
		}
		if root == nil {
			t.Fatal("Decode returned nil plan and nil error")
		}
		// The encoder is the next validation stage on the request path; it
		// must reject unknown tables/columns with an error, not a panic.
		_, _ = testEnc.Encode(root)
	})
}
