package serve

import (
	"encoding/json"
	"math"
	"testing"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/plan/plantest"
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

// textCollisionBody holds two plans of different shape whose old text
// signatures coincided: table names reached the text unescaped.
const textCollisionBody = `{"plans":[{"op":"hashjoin","left":{"op":"seqscan","table":"u](2[](0[p],0[q]),0[r]"},"right":{"op":"seqscan","table":"d"}},` +
	`{"op":"hashjoin","table":"](0[u","left":{"op":"hashjoin","left":{"op":"seqscan","table":"p"},"right":{"op":"seqscan","table":"q"}},"right":{"op":"seqscan","table":"r]],0[d"}}]}`

// FuzzEstimateDecode drives the /estimate request path's decoder with
// arbitrary bytes. This is the daemon's network-facing parser: any panic here
// is a remotely triggerable crash, so the contract is error-or-plans, never
// panic — and, body by body, the differential of
// TestDecodeEstimateMatchesOracle: it accepts exactly what the decoder it
// replaced accepts, minus the four tightenings, and builds the same trees,
// whose sub-plans have one ID exactly when they are equal (plantest.CheckIDs).
// Accepted plans go on through the feature encoder on a recycled arena, as in
// the handler, and must encode: the decoder resolves every name and applies
// every rule the encoder relies on. Each body then runs as one batch on a
// pooled server — the call a scheduler run makes — whose estimates must equal
// the plans' single-plan evaluations. A panic anywhere on that path fails the
// fuzzer: the scheduler would contain it, but only as a failed request.
func FuzzEstimateDecode(f *testing.F) {
	seeds := wirePlanSeeds(f)
	for _, seed := range seeds {
		f.Add(asRequest(seed))
	}
	f.Add([]byte(`{"plans":[` + string(seeds[0]) + `,` + string(seeds[1]) + `],"timeout_ms":50}`))
	for _, body := range decodeTable {
		f.Add([]byte(body))
	}
	for _, body := range repeatBodies(f) {
		f.Add(body)
	}
	f.Add([]byte(textCollisionBody))
	for _, c := range unknownNames {
		f.Add([]byte(`{"plan":` + c.plan + `}`))
	}
	var arena feature.Arena // recycled across inputs, as the handler's is across requests
	// One server for every input, as the daemon's is for every request: its
	// bounded pool fills, admits on second sightings and evicts.
	srv := core.NewServer(core.New(core.TestConfig(), testEnc), core.NewBoundedMemoryPool(256))
	snap := srv.AcquireSnapshot() // nothing publishes: this is the snapshot every batch runs on
	defer srv.ReleaseSnapshot(snap)
	f.Fuzz(func(t *testing.T, body []byte) {
		roots := checkDecodeAgainstOracle(t, body)
		plantest.CheckIDs(t, roots...)
		// The decoder is the request path's only point of refusal: what it
		// accepts encodes.
		eps, err := testEnc.EncodeAll(roots, &arena)
		if err != nil {
			t.Fatalf("an accepted body does not encode: %v\n%s", err, body)
		}
		// Whatever the plans share, each encoding must have its own tree's
		// shape: the batch runtime indexes by these fields unchecked.
		for i, ep := range eps {
			members := 0
			for _, level := range ep.Levels {
				members += len(level)
			}
			if len(ep.Nodes) != countNodes(roots[i]) || members != len(ep.Nodes) || ep.CardNode >= len(ep.Nodes) {
				t.Fatalf("plan %d: %d nodes encoded as %d, %d level members, cardinality node %d:\n%s",
					i, countNodes(roots[i]), len(ep.Nodes), members, ep.CardNode, body)
			}
			for j, n := range ep.Nodes {
				if n.Left >= len(ep.Nodes) || n.Right >= len(ep.Nodes) || (n.Left >= 0 && n.Left <= j) || (n.Right >= 0 && n.Right <= j) {
					t.Fatalf("plan %d node %d: children %d, %d of %d nodes:\n%s", i, j, n.Left, n.Right, len(ep.Nodes), body)
				}
			}
		}
		ests, _, _, _ := srv.EstimateBatchInto(eps, make([]core.Estimate, len(eps)))
		for i, ep := range eps {
			cost, card := snap.Model().Estimate(ep)
			if !sameFloat(ests[i].Cost, cost) || !sameFloat(ests[i].Card, card) {
				t.Fatalf("plan %d: batch (%g, %g), single plan (%g, %g):\n%s", i, ests[i].Cost, ests[i].Card, cost, card, body)
			}
		}
	})
}

// sameFloat is float equality with every NaN equal to every other.
func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
