package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"costest/internal/fault"
)

// newTestService spins up a full serving stack (scheduler + HTTP service)
// over a trained server, started and marked ready.
func newTestService(t *testing.T) (*Service, *Scheduler, *httptest.Server) {
	t.Helper()
	plans, eps := testCorpus(t, 201, 12)
	srv, _ := testServer(t, eps)
	sched := NewScheduler(srv, SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
	sched.Start()
	svc := NewService(sched, srv, testEnc)
	svc.SetSample(EncodeWire(plans[0]))
	svc.SetReady(true)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return svc, sched, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// httptest2 serves svc over a test HTTP server torn down with the test and
// returns its base URL (the scheduler's lifecycle stays with the caller —
// tests that stage a backlog control when it starts and drains).
func httptest2(t *testing.T, svc *Service) string {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestHTTPEstimateRoundTrip posts real plans through the wire format and
// checks each response against a direct single-threaded evaluation of the
// served snapshot.
func TestHTTPEstimateRoundTrip(t *testing.T) {
	plans, eps := testCorpus(t, 201, 12)
	svc, _, ts := newTestService(t)
	_ = svc

	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/estimate", estimateRequest{Plan: EncodeWire(plans[i])})
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("estimate %d: status %d: %s", i, resp.StatusCode, body)
		}
		var er estimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if len(er.Estimates) != 1 {
			t.Fatalf("got %d estimates, want 1", len(er.Estimates))
		}
		got := er.Estimates[0]
		if got.Version == 0 {
			t.Fatal("response missing snapshot version")
		}
		// eps[i] was encoded from the same plan; the wire round trip must not
		// perturb the estimate.
		sched := svc.sched
		res, err := sched.Submit(t.Context(), eps[i])
		if err != nil {
			t.Fatalf("direct submit: %v", err)
		}
		if got.Cost != res.Cost || got.Card != res.Card {
			t.Fatalf("wire estimate (%g,%g) != direct (%g,%g)", got.Cost, got.Card, res.Cost, res.Card)
		}
	}

	// Multi-plan request: one response entry per plan, same order.
	resp := postJSON(t, ts.URL+"/estimate", estimateRequest{
		Plans: []*WirePlan{EncodeWire(plans[3]), EncodeWire(plans[4])},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multi-plan status %d", resp.StatusCode)
	}
	var er estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(er.Estimates) != 2 {
		t.Fatalf("got %d estimates for 2 plans", len(er.Estimates))
	}
}

// TestHTTPSamplezServesValidRequest: the /samplez body must itself be a
// servable /estimate request — the discovery contract the smoke test uses.
func TestHTTPSamplezServesValidRequest(t *testing.T) {
	_, _, ts := newTestService(t)
	resp, err := http.Get(ts.URL + "/samplez")
	if err != nil {
		t.Fatalf("get samplez: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samplez status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	resp2, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post sample: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp2.Body)
		t.Fatalf("sample request not servable: %d: %s", resp2.StatusCode, b)
	}
}

// TestHTTPBadRequests: malformed bodies are 400s at the boundary and never
// occupy a queue slot. (The tightened rows are servable once the defect named
// beside them is removed: TestDecodeEstimateMatchesOracle has them both ways.)
func TestHTTPBadRequests(t *testing.T) {
	_, sched, ts := newTestService(t)
	before := sched.Stats().Admitted
	cases := []string{
		`{`,                          // broken JSON
		`{}`,                         // no plan
		`{"plan":{"op":"fullscan"}}`, // unknown operator
		`{"plan":{"op":"seqscan"}}`,  // scan without table
		`{"plan":{"op":"hashjoin"}}`, // join without inputs
		`{"plan":{"op":"seqscan","table":"title"},"bogus":1}`,                                                                        // unknown field
		`{"plan":{"op":"seqscan","table":"title","filter":{"atom":{"table":"title","column":"production_year","op":"in","num":3}}}}`, // op/operand mismatch
		// The decoder's tightenings over encoding/json, and its number rules.
		`{"Plan":{"op":"seqscan","table":"title"}}`,                                                                                  // member name in the wrong case
		`{"plan":{"op":"seqscan","table":"title","table":"title"}}`,                                                                  // member repeated
		"{\"plan\":{\"op\":\"seqscan\",\"table\":\"title\xff\"}}",                                                                    // invalid UTF-8
		`{"plan":{"op":"seqscan","table":"title"}} trailing`,                                                                         // data after the request object
		`{"plan":{"op":"seqscan","table":"title"},"timeout_ms":2.5}`,                                                                 // timeout_ms not an integer
		`{"plan":{"op":"seqscan","table":"title"},"timeout_ms":1e30}`,                                                                // timeout_ms overflows
		`{"plan":{"op":"indexscan","table":"title","index_cond":{"table":"title","column":"production_year","op":">","num":1e999}}}`, // number overflows
		// Two plans of different shape whose old text signatures collided,
		// because table names reached them unescaped: no schema has their
		// names (TestDecodedIDsMatchStructure checks that their IDs differ).
		textCollisionBody,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if after := sched.Stats().Admitted; after != before {
		t.Fatalf("bad requests reached the queue: admitted %d -> %d", before, after)
	}
	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /estimate: status %d, want 405", resp.StatusCode)
	}
}

// unknownNames are plans that name a table, column or index the schema
// lacks, one for each slot that holds a name, with the slot.
var unknownNames = func() []struct{ slot, plan string } {
	const scan = `{"op":"seqscan","table":"title"}`
	return []struct{ slot, plan string }{
		{"table", `{"op":"seqscan","table":"nope"}`},
		{"table", `{"op":"seqscan","table":"kind_id"}`}, // a column's name, no table's
		{"index", `{"op":"indexscan","table":"title","index":"nope_pkey"}`},
		{"index_cond", `{"op":"indexscan","table":"title","index_cond":{"table":"title","column":"nope","op":"=","num":1}}`},
		{"index_cond", `{"op":"indexscan","table":"title","index_cond":{"table":"title","column":"note","op":"=","num":1}}`}, // a column of another table
		{"filter", `{"op":"seqscan","table":"title","filter":{"atom":{"table":"title","column":"nope","op":"=","num":1}}}`},
		{"join", `{"op":"hashjoin","join":{"left":{"table":"nope","column":"id"},"right":{"table":"title","column":"id"}},"left":` + scan + `,"right":` + scan + `}`},
		{"join", `{"op":"hashjoin","join":{"left":{"table":"title","column":"id"},"right":{"table":"title","column":"nope"}},"left":` + scan + `,"right":` + scan + `}`},
		{"param_join", `{"op":"indexscan","table":"title","param_join":{"left":{"table":"title","column":"id"},"right":{"table":"kind_type","column":"nope"}}}`},
		{"sort_keys", `{"op":"sort","sort_keys":[{"table":"title","column":"nope"}],"left":` + scan + `}`},
		{"aggs", `{"op":"aggregate","aggs":[{"func":"max","col":{"table":"title","column":"nope"}}],"left":` + scan + `}`},
	}
}()

// TestUnknownNamesRefused: a plan that names a table, column or index the
// schema lacks, in any slot that holds a name, is a 400 at decode that names
// the slot, and never reaches the scheduler.
func TestUnknownNamesRefused(t *testing.T) {
	hh, svc := newHandlerHarness(t)
	before := svc.sched.Stats().Admitted
	for _, c := range unknownNames {
		body := []byte(`{"plan":` + c.plan + `}`)
		if status := hh.do(body); status != http.StatusBadRequest || !strings.Contains(string(hh.w.body), c.slot+" names") {
			t.Errorf("%s: status %d, body %q; want a 400 naming the slot", c.plan, status, hh.w.body)
		}
	}
	if after := svc.sched.Stats().Admitted; after != before {
		t.Fatalf("plans with unknown names reached the queue: admitted %d -> %d", before, after)
	}
}

// TestHTTPReadinessAndDrain: /readyz gates on SetReady and flips unready the
// moment the scheduler drains; estimates during the drain are 503s carrying
// a Retry-After hint.
func TestHTTPReadinessAndDrain(t *testing.T) {
	plans, eps := testCorpus(t, 201, 12)
	srv, _ := testServer(t, eps)
	sched := NewScheduler(srv, SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
	sched.Start()
	svc := NewService(sched, srv, testEnc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer sched.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady: %d, want 503", code)
	}
	resp := postJSON(t, ts.URL+"/estimate", estimateRequest{Plan: EncodeWire(plans[0])})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("estimate before ready: %d, want 503", resp.StatusCode)
	}

	svc.SetReady(true)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after SetReady: %d", code)
	}

	sched.Close() // drain begins: readiness must flip with no extra call
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	resp = postJSON(t, ts.URL+"/estimate", estimateRequest{Plan: EncodeWire(plans[0])})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("estimate while draining: %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("503 without usable Retry-After: %q", resp.Header.Get("Retry-After"))
	}
}

// TestHTTPStatsz: the observability endpoint reports scheduler counters, the
// generation-tagged pool, and the snapshot drain-list high water.
func TestHTTPStatsz(t *testing.T) {
	plans, _ := testCorpus(t, 201, 12)
	_, _, ts := newTestService(t)
	// The decoder's counters: body bytes accepted, and those skipped as
	// repeats of an earlier subtree of the same body.
	decodeSharing := func() (bytes, shared int64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatalf("get statsz: %v", err)
		}
		defer resp.Body.Close()
		var st struct {
			Sharing struct {
				DecodeBytes       *int64 `json:"decode_bytes"`
				DecodeSharedBytes *int64 `json:"decode_shared_bytes"`
			} `json:"sharing"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Sharing.DecodeBytes == nil || st.Sharing.DecodeSharedBytes == nil {
			t.Fatalf("statsz sharing lacks decode_bytes / decode_shared_bytes (%v)", err)
		}
		return *st.Sharing.DecodeBytes, *st.Sharing.DecodeSharedBytes
	}
	one := mustMarshal(t, estimateRequest{Plan: EncodeWire(plans[0])})
	postJSON(t, ts.URL+"/estimate", estimateRequest{Plan: EncodeWire(plans[0])})
	if n, shared := decodeSharing(); n != int64(len(one)) || shared != 0 {
		t.Fatalf("after a one-plan body of %d bytes: decode_bytes %d, decode_shared_bytes %d, want %d and 0", len(one), n, shared, len(one))
	}
	// The same plan three times in one request, which runs as one batch: the
	// copies after the first alias it in-batch.
	same := EncodeWire(plans[1])
	postJSON(t, ts.URL+"/estimate", estimateRequest{Plans: []*WirePlan{same, same, same}})
	three := mustMarshal(t, estimateRequest{Plans: []*WirePlan{same, same, same}})
	copies := 2 * int64(len(mustMarshal(t, same)))
	if n, shared := decodeSharing(); n != int64(len(one)+len(three)) || shared < copies {
		t.Fatalf("after the three-copy body: decode_bytes %d, decode_shared_bytes %d, want %d and at least the two copies' %d",
			n, shared, len(one)+len(three), copies)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatalf("get statsz: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Version   uint64         `json:"version"`
		Scheduler SchedulerStats `json:"scheduler"`
		Pool      *struct {
			Bound     int     `json:"bound"`
			StaleRate float64 `json:"stale_rate"`
			Admitted  *int64  `json:"admitted"`
			Declined  *int64  `json:"declined"`
		} `json:"pool"`
		Sharing *struct {
			NodesPlaced int64   `json:"nodes_placed"`
			NodesShared int64   `json:"nodes_shared"`
			SharedRate  float64 `json:"shared_rate"`
			// The encoder's half: of the nodes requests carried, those copied
			// from an earlier subtree of the same request.
			EncodeNodes      int64   `json:"encode_nodes"`
			EncodeShared     int64   `json:"encode_shared"`
			EncodeSharedRate float64 `json:"encode_shared_rate"`
		} `json:"sharing"`
		Drain struct {
			Retired          int `json:"Retired"`
			RetiredHighWater int `json:"RetiredHighWater"`
		} `json:"snapshot_drain"`
		PublishesRefused *uint64 `json:"publishes_refused"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if st.PublishesRefused == nil || *st.PublishesRefused != 0 {
		t.Fatalf("statsz publishes_refused = %v, want a present 0", st.PublishesRefused)
	}
	if st.Version == 0 {
		t.Fatal("statsz missing snapshot version")
	}
	if st.Scheduler.Served < 1 || st.Scheduler.Batches < 1 {
		t.Fatalf("statsz scheduler counters empty: %+v", st.Scheduler)
	}
	// Two requests on an idle scheduler: two groups (1 and 3 plans), each run
	// inline as its own batch.
	if sc := st.Scheduler; sc.Groups != 2 || sc.MeanGroupPlans != 2 || sc.RunsInline != 2 || sc.Batches != 2 || sc.MeanBatch != 2 {
		t.Fatalf("statsz group counters = %+v, want 2 inline groups of mean size 2 in 2 batches", sc)
	}
	if st.Pool == nil || st.Pool.Bound != 2048 {
		t.Fatalf("statsz pool = %+v, want bound 2048", st.Pool)
	}
	// Every computed sub-plan was offered once to a pool with free slots,
	// which admits a first offer: nothing had to be evicted for it.
	if st.Pool.Admitted == nil || st.Pool.Declined == nil || *st.Pool.Admitted == 0 || *st.Pool.Declined != 0 {
		t.Fatalf("statsz pool admitted/declined = %v/%v, want both present, first offers admitted",
			st.Pool.Admitted, st.Pool.Declined)
	}
	if sh := st.Sharing; sh == nil || sh.NodesPlaced < 4 || sh.NodesShared > sh.NodesPlaced ||
		sh.SharedRate != float64(sh.NodesShared)/float64(sh.NodesPlaced) {
		t.Fatalf("statsz sharing = %+v, want at least the four served plans' roots placed", sh)
	}
	// Two whole copies of plans[1] were shared, nothing of plans[0].
	n0, n1 := int64(countNodes(plans[0])), int64(countNodes(plans[1]))
	if sh := st.Sharing; sh.EncodeNodes != n0+3*n1 || sh.EncodeShared != 2*n1 ||
		sh.EncodeSharedRate != float64(sh.EncodeShared)/float64(sh.EncodeNodes) {
		t.Fatalf("statsz encode sharing = %+v, want %d nodes, %d shared", sh, n0+3*n1, 2*n1)
	}
	if st.Drain.RetiredHighWater < 0 || st.Drain.Retired > st.Drain.RetiredHighWater {
		t.Fatalf("statsz drain inconsistent: %+v", st.Drain)
	}
}

// TestWireRoundTrip: encode → JSON → decode must reproduce the exact plan
// (same signature, same features, bit-identical estimate) for every plan in
// a mixed corpus.
func TestWireRoundTrip(t *testing.T) {
	plans, eps := testCorpus(t, 202, 16)
	srv, _ := testServer(t, eps)
	m := heldSnapshot(t, srv).Model()
	for i, p := range plans {
		raw, err := json.Marshal(EncodeWire(p))
		if err != nil {
			t.Fatalf("plan %d: marshal: %v", i, err)
		}
		var w WirePlan
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatalf("plan %d: unmarshal: %v", i, err)
		}
		back, err := w.Decode()
		if err != nil {
			t.Fatalf("plan %d: decode: %v\n%s", i, err, raw)
		}
		if back.Signature() != p.Signature() {
			t.Fatalf("plan %d: identity drift\n got %s\nwant %s", i, back, p)
		}
		ep, err := testEnc.Encode(back)
		if err != nil {
			t.Fatalf("plan %d: re-encode: %v", i, err)
		}
		c0, d0 := m.Estimate(eps[i])
		c1, d1 := m.Estimate(ep)
		if c0 != c1 || d0 != d1 {
			t.Fatalf("plan %d: estimate drift through wire: (%g,%g) vs (%g,%g)", i, c0, d0, c1, d1)
		}
	}
}

// Builders for the bounds tests: structurally valid plans of a chosen shape.
func wireScan() *WirePlan { return &WirePlan{Op: "seqscan", Table: "title"} }

// wireUnaryChain stacks n-1 sorts on a scan: n nodes, depth n.
func wireUnaryChain(n int) *WirePlan {
	w := wireScan()
	for i := 1; i < n; i++ {
		w = &WirePlan{Op: "sort", Left: w}
	}
	return w
}

// wireJoinTree is a balanced join tree over leaves scans: 2*leaves-1 nodes.
func wireJoinTree(leaves int) *WirePlan {
	if leaves == 1 {
		return wireScan()
	}
	return &WirePlan{Op: "hashjoin", Left: wireJoinTree(leaves / 2), Right: wireJoinTree(leaves - leaves/2)}
}

func wireNumAtom() *WireAtom {
	one := 1.0
	return &WireAtom{Table: "title", Column: "production_year", Op: ">", Num: &one}
}

// wireAndChain is a left-deep AND of atoms: 2*atoms-1 predicate nodes.
func wireAndChain(atoms int) *WirePred {
	p := &WirePred{Atom: wireNumAtom()}
	for i := 1; i < atoms; i++ {
		p = &WirePred{Bool: "and", Left: p, Right: &WirePred{Atom: wireNumAtom()}}
	}
	return p
}

func wireInScan(vals int, asIndexCond bool) *WirePlan {
	a := &WireAtom{Table: "title", Column: "title", Op: "in", In: make([]string, vals)}
	for i := range a.In {
		a.In[i] = strconv.Itoa(i)
	}
	w := wireScan()
	if asIndexCond {
		w.IndexCond = a
	} else {
		w.Filter = &WirePred{Atom: a}
	}
	return w
}

// TestWirePlanBounds: each hostile-plan limit admits a plan at the limit and
// rejects one past it with an error (a 400 over HTTP) that names the limit,
// before anything is queued — and, on the request path, before the part of
// the body past the limit is read or built.
func TestWirePlanBounds(t *testing.T) {
	withFilter := func(p *WirePred) *WirePlan { w := wireScan(); w.Filter = p; return w }
	cases := []struct {
		name     string
		ok, over *WirePlan
		want     string
	}{
		{"nodes", &WirePlan{Op: "sort", Left: wireJoinTree(128)}, // 256 nodes
			&WirePlan{Op: "aggregate", Left: &WirePlan{Op: "sort", Left: wireJoinTree(128)}},
			"plan has more than 256 nodes"},
		{"depth", wireUnaryChain(MaxPlanDepth), wireUnaryChain(MaxPlanDepth + 1), "more than 64 levels deep"},
		{"predicate nodes", withFilter(wireAndChain(128)), // 255 nodes
			withFilter(wireAndChain(129)), "predicate has more than 256 nodes"},
		{"in values", wireInScan(MaxInValues, false), wireInScan(MaxInValues+1, false), "IN list has more than 256 values"},
		{"index-cond in values", wireInScan(MaxInValues, true), wireInScan(MaxInValues+1, true), "IN list has more than 256 values"},
	}
	_, sched, ts := newTestService(t)
	for _, c := range cases {
		if _, err := c.ok.Decode(); err != nil {
			t.Errorf("%s: plan at the limit rejected: %v", c.name, err)
		}
		if _, _, err := DecodeEstimate(testDB.Schema, mustMarshal(t, estimateRequest{Plan: c.ok})); err != nil {
			t.Errorf("%s: request at the limit rejected: %v", c.name, err)
		}
		if _, err := c.over.Decode(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: plan past the limit: err = %v, want one naming %q", c.name, err, c.want)
		}
		resp := postJSON(t, ts.URL+"/estimate", estimateRequest{Plan: c.over})
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: POST past the limit: %d %q, want 400 naming %q", c.name, resp.StatusCode, body, c.want)
		}
	}
	if st := sched.Stats(); st.Admitted != 0 {
		t.Fatalf("oversized plans reached the queue: %+v", st)
	}

	// Early refusal: ≈1 MiB bodies of one hostile plan each — a unary chain
	// (≈49k nodes, trips the depth bound) and a balanced join tree (≈31k
	// nodes, trips the node bound) — are refused having built at most
	// MaxPlanNodes nodes. Each node built costs at least its plan.Node
	// allocation, so the allocation count bounds the nodes built.
	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	for name, hostile := range map[string]*WirePlan{"unary chain": wireUnaryChain(49000), "join tree": wireJoinTree(15700)} {
		body := mustMarshal(t, estimateRequest{Plan: hostile})
		if len(body) < 1000<<10 || len(body) > 1<<20 {
			t.Fatalf("%s: hostile body is %d bytes, want just under 1 MiB", name, len(body))
		}
		var err error
		allocs := testing.AllocsPerRun(5, func() { _, _, err = DecodeEstimate(testDB.Schema, body) })
		if err == nil || allocs > 3*MaxPlanNodes {
			t.Errorf("%s: err = %v after %.0f allocations, want a refusal within %d", name, err, allocs, 3*MaxPlanNodes)
		}
	}
}

// TestRetryAfterSecs pins the pure hint-to-header conversion: round up to
// whole seconds, add up to half the hint of jitter, clamp to [1, 60].
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		hint time.Duration
		jit  float64
		want int
	}{
		{0, 0, 1},                      // floor: never tell a client "0"
		{time.Second, 0, 1},            // exact second, no jitter
		{time.Second, 0.99, 2},         // jitter pushes past the second
		{500 * time.Millisecond, 0, 1}, // sub-second rounds up
		{4 * time.Second, 1.0, 6},      // 4s + 2s jitter
		{10 * time.Minute, 0, 60},      // clamped ceiling
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.hint, c.jit); got != c.want {
			t.Errorf("retryAfterSecs(%v, %g) = %d, want %d", c.hint, c.jit, got, c.want)
		}
	}
}

// TestHTTPRetryAfterScalesWithQueueDepth: a 503 from a backed-up daemon must
// carry a Retry-After derived from the actual backlog (plans waiting for a
// run slot times the measured run time), not the constant floor.
func TestHTTPRetryAfterScalesWithQueueDepth(t *testing.T) {
	oneSlot(t)
	plans, eps := testCorpus(t, 304, 8)
	srv, _ := testServer(t, eps)
	const depth = 8
	sched := NewScheduler(srv, SchedulerConfig{QueueDepth: depth, MaxBatch: 1})
	svc := NewService(sched, srv, testEnc)
	svc.SetReady(true)
	ts := httptest2(t, svc)

	// The first two runs take 400ms each: the first teaches the scheduler
	// its run time, the second holds the only slot while the queue fills.
	const delay = 400 * time.Millisecond
	fault.Enable(fault.New(1).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Latency, Delay: delay, Count: 2}))
	defer fault.Disable()
	sched.Start()
	defer sched.Close()
	if _, err := sched.Submit(t.Context(), eps[0]); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if got := sched.Stats().MeanBatchUS; got < float64(delay/time.Microsecond) {
		t.Fatalf("mean_batch_us = %.0f after one %v run", got, delay)
	}

	done := make(chan struct{})
	go func() {
		defer func() { done <- struct{}{} }()
		sched.Submit(t.Context(), eps[0])
	}()
	waitPickedUp(t, sched, 2)
	// Two 4-plan groups fill the queue: admission counts plans, not groups.
	for range 2 {
		go func() {
			defer func() { done <- struct{}{} }()
			sched.SubmitGroup(t.Context(), eps[:4], make([]Result, 4))
		}()
	}
	waitDepth(t, sched, depth)

	// hint = (8/1+1) runs / 1 slot * ~400ms = ~3.6s; jitter adds up to half.
	resp := postJSON(t, ts+"/estimate", estimateRequest{Plan: EncodeWire(plans[4])})
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d, want 503", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 4 || secs > 6 {
		t.Fatalf("Retry-After %ds outside derived range [4, 6] for %d waiting plans behind %v runs", secs, depth, delay)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
}
