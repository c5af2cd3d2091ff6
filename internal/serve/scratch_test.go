package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"costest/internal/plan"
)

// TestAppendEstimatesMatchesWriteJSON pins the /estimate response writer to
// the encoder it replaced, byte for byte, over every formatting rule of
// encoding/json a response can reach: integers, the %f / %e switch at 1e-6
// and 1e21 from both sides, the exponent clean-up, subnormals, the largest and
// smallest doubles, negative zero, and omitempty on each optional field.
func TestAppendEstimatesMatchesWriteJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, 2, 42, 1e6, 123456789, 1 << 53, 0.1, 1.5, 0.7478548699359692, 296.1964641330144,
		1e20, 999999999999999868928, 1e21, 1.2345e21, 1e22, 1e100, math.MaxFloat64,
		1e-5, 1.5e-6, 1e-6, 0.000001, 9.999999e-7, 1e-7, 1.25e-7, 1e-10, 1e-100, 2.2250738585072014e-308,
		5e-324, 4.9406564584124654e-324, 1.1125369292536007e-308, -1.5, -1e21, -1e-7, -5e-324,
	}
	var ests []wireEstimate
	for i, f := range floats {
		ests = append(ests, wireEstimate{Cost: f, Card: floats[len(floats)-1-i], Version: uint64(i)})
	}
	ests = append(ests,
		wireEstimate{Cost: 1, Card: 1, Version: math.MaxUint64, Epoch: 3, Generation: 17},
		wireEstimate{Cost: 1, Card: 1, Version: 1, Epoch: 3},
		wireEstimate{Cost: 1, Card: 1, Version: 1, Generation: 17},
		wireEstimate{Cost: 1, Card: 1, Version: 1},
		wireEstimate{},
	)
	for _, c := range [][]wireEstimate{ests, ests[:1], ests[len(ests)-5 : len(ests)-4], {}} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, estimateResponse{Estimates: c})
		got, err := appendEstimates(nil, c)
		if err != nil {
			t.Fatalf("appendEstimates(%d estimates): %v", len(c), err)
		}
		if want := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("appendEstimates(%d estimates) differs from writeJSON\n got %s\nwant %s", len(c), got, want)
		}
	}
	// What encoding/json cannot write either is an error, not a body.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, e := range []wireEstimate{{Cost: f, Card: 1}, {Cost: 1, Card: f}} {
			if _, err := appendEstimates(nil, []wireEstimate{{Cost: 1, Card: 1}, e}); err == nil {
				t.Fatalf("appendEstimates accepted %+v", e)
			}
		}
	}
}

// TestEstimateRequestAllocs caps what one warm /estimate request may leave for
// the collector, measured through Service.Handler on the benchmark's two body
// shapes. The ceilings are a third (a half for one plan) of what the same
// harness measured before a request had a recycled scratch, and for 64 plans
// lower again since a request's plans are submitted as one group instead of
// one goroutine each.
func TestEstimateRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items at random under it")
	}
	single, enum64 := estimateBodies(t)
	for _, c := range []struct {
		name          string
		body          []byte
		allocs, bytes float64
	}{
		// Before the scratch: 4,769 allocations and 1,360 KB for the 64-plan
		// body, 133 and 34.5 KB for one plan. With it, but one Submit goroutine
		// a plan: 281 / 74 KB and 17 / 3.7 KB. As one group: 215 / 72 KB and
		// 16 / 3.6 KB. With sub-plan IDs in place of text signatures: 151 /
		// 9.8 KB and 15 / 3.0 KB (the margins above them unchanged).
		{"enum64", enum64, 176, 432e3},
		{"single", single, 65, 16.4e3},
	} {
		hh, _ := newHandlerHarness(t)
		for i := 0; i < 3; i++ { // a slab that grew mid-request fits the next one whole
			hh.post(t, c.body)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { hh.post(t, c.body) })
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one run more
		t.Logf("%s: %.0f allocs, %.0f bytes a request", c.name, allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: a warm request allocates %.0f times, %.0f bytes; ceilings %.0f and %.0f", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// TestScratchRetentionCap: a request that grows its scratch past
// maxScratchBytes — here a body just under the 1 MiB limit — is served, and
// its scratch is dropped rather than pooled; the ordinary request after it
// gets, and pools, an ordinary one. Whatever sits in the pool is under the cap.
func TestScratchRetentionCap(t *testing.T) {
	single, _ := estimateBodies(t)
	hh, svc := newHandlerHarness(t)
	pooled := func() *requestScratch {
		sc, _ := svc.scratch.Get().(*requestScratch)
		return sc
	}

	// The node-densest plan the bounds allow (a 255-node join tree of bare
	// scans), repeated until the body is as large as a body may be. Every copy
	// shares the first one's encoding, so it is the body buffer and the node
	// slabs that grow, not the feature vectors. The decoder builds a subtree
	// once per body when its bytes repeat, so every leaf of every copy carries
	// its own run of whitespace: each subtree's bytes are unique, and the
	// slabs grow by every node the body holds.
	leaves := 0
	var tree func(n int) []byte
	tree = func(n int) []byte {
		if n > 1 {
			return []byte(`{"op":"hashjoin","left":` + string(tree(n/2)) + `,"right":` + string(tree(n-n/2)) + `}`)
		}
		leaf := []byte(`{"op":"seqscan","table":"title"`)
		for bit := range 16 {
			leaf = append(leaf, " \t"[leaves>>bit&1])
		}
		leaves++
		return append(leaf, '}')
	}
	big := []byte(`{"plans":[`)
	for plan := tree(MaxPlanNodes / 2); len(big)+len(plan)+2 <= 1<<20; plan = tree(MaxPlanNodes / 2) {
		big = append(append(big, plan...), ',')
	}
	big[len(big)-1] = ']'
	big = append(big, '}')
	var dec decoder
	if _, _, err := dec.decode(big); err != nil || dec.shared != 0 || len(big)+dec.retained() <= maxScratchBytes {
		t.Fatalf("the 1 MiB body decodes with error %v, %d bytes shared, %d retained with the body: want a scratch past the cap",
			err, dec.shared, len(big)+dec.retained())
	}
	// Answered 200 (one group, run inline on the idle scheduler), or 503 had
	// it found every slot busy with more plans than the queue (256) holds;
	// decoded and encoded either way.
	if status := hh.do(big); status != http.StatusOK && status != http.StatusServiceUnavailable {
		t.Fatalf("1 MiB request: status %d: %s", status, hh.w.body)
	}
	if sc := pooled(); sc != nil && sc.retained() > maxScratchBytes {
		t.Fatalf("a scratch retaining %d bytes was pooled; the cap is %d", sc.retained(), maxScratchBytes)
	}

	hh.post(t, single)
	sc := pooled()
	switch {
	case sc == nil && !raceEnabled: // under -race a Pool drops items at random
		t.Fatal("the scratch of an ordinary request was not pooled")
	case sc != nil && (sc.retained() == 0 || sc.retained() > maxScratchBytes):
		t.Fatalf("pooled scratch retains %d bytes, want a used one under %d", sc.retained(), maxScratchBytes)
	}

	// The intern table is bounded too, however many names clients invent.
	var d decoder
	for i := 0; i < 3*maxInterned; i++ {
		body := []byte(`{"plan":{"op":"seqscan","table":"t` + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676)) + `"}}`)
		if _, _, err := d.decode(body); err != nil {
			t.Fatal(err)
		}
		if len(d.names) > maxInterned {
			t.Fatalf("intern table holds %d names, bound %d", len(d.names), maxInterned)
		}
	}
	long := bytes.Repeat([]byte("x"), maxInternLen+1)
	if _, _, err := d.decode([]byte(`{"plan":{"op":"seqscan","table":"` + string(long) + `"}}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.names[string(long)]; ok {
		t.Fatalf("a %d-byte name was interned, bound %d", len(long), maxInternLen)
	}
}

// TestConcurrentRequestsKeepTheirScratch: handler goroutines take scratches
// from one pool at the same time; each must get every answer of its own
// request — a different enumeration per client, single plans in between —
// bit-identical to a direct evaluation of a fresh encoding of that plan.
func TestConcurrentRequestsKeepTheirScratch(t *testing.T) {
	_, svc := newHandlerHarness(t)
	h := svc.Handler()
	model := heldSnapshot(t, svc.srv).Model()
	const clients, rounds = 4, 12

	type request struct {
		body []byte
		want []wireEstimate
	}
	perClient := make([][]request, clients)
	for c := range perClient {
		plans := enumVariants(t, int64(20+c), 3, 8)
		build := func(ps []*plan.Node) request {
			var req request
			var wire []*WirePlan
			for _, p := range ps {
				ep, err := testEnc.Encode(p)
				if err != nil {
					t.Fatal(err)
				}
				cost, card := model.Estimate(ep)
				req.want = append(req.want, wireEstimate{Cost: cost, Card: card, Version: 1})
				wire = append(wire, EncodeWire(p))
			}
			req.body = mustMarshal(t, estimateRequest{Plans: wire})
			return req
		}
		perClient[c] = []request{build(plans), build(plans[c : c+1]), build(plans[8:16])}
	}

	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				req := perClient[c][round%len(perClient[c])]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(req.body)))
				var got estimateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					t.Errorf("client %d round %d: status %d, %v: %s", c, round, rec.Code, err, rec.Body.Bytes())
					return
				}
				if !reflect.DeepEqual(got.Estimates, req.want) {
					t.Errorf("client %d round %d: estimates differ from a direct evaluation\n got %+v\nwant %+v", c, round, got.Estimates, req.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
