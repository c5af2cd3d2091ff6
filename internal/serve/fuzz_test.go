package serve

import (
	"encoding/json"
	"testing"
)

// FuzzWirePlanDecode drives the wire format's struct decoder — JSON unmarshal
// into WirePlan, then structural Decode — with arbitrary bytes. Clients, the
// benchmark and DecodeEstimate's oracle go through it, so the contract is
// error-or-plan, never panic. Decoded plans are additionally pushed through
// the feature encoder, the next validation stage.
func FuzzWirePlanDecode(f *testing.F) {
	for _, seed := range wirePlanSeeds(f) {
		f.Add(seed)
	}
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
		// The encoder must reject unknown tables/columns with an error, not
		// a panic.
		_, _ = testEnc.Encode(root)
	})
}

// FuzzEstimateDecode drives the /estimate request path's decoder with
// arbitrary bytes. This is the daemon's network-facing parser: any panic here
// is a remotely triggerable crash, so the contract is error-or-plans, never
// panic — and, body by body, the differential of
// TestDecodeEstimateMatchesOracle: it accepts exactly what the decoder it
// replaced accepts, minus the four tightenings, and builds the same trees.
// Accepted plans go on through the feature encoder, as in the handler.
func FuzzEstimateDecode(f *testing.F) {
	seeds := wirePlanSeeds(f)
	for _, seed := range seeds {
		f.Add(asRequest(seed))
	}
	f.Add([]byte(`{"plans":[` + string(seeds[0]) + `,` + string(seeds[1]) + `],"timeout_ms":50}`))
	for _, body := range decodeTable {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, root := range checkDecodeAgainstOracle(t, body) {
			_, _ = testEnc.Encode(root)
		}
	})
}
