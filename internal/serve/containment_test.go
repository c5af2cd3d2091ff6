package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"costest/internal/core"
	"costest/internal/fault"
)

// TestFailedRunAnswersItsError: an injected serve.batch error fails exactly
// the run it hits — every group that run took answers with the injected
// error, and no estimate of theirs is written — and nothing else: the next
// run and the next group are served.
func TestFailedRunAnswersItsError(t *testing.T) {
	oneSlot(t)
	_, eps := testCorpus(t, 301, 8)
	srv, _ := testServer(t, eps)
	snap := heldSnapshot(t, srv)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 16, MaxBatch: 8})
	defer s.Close()

	fault.Enable(fault.New(11).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Error, Count: 1}))
	defer fault.Disable()

	// Two groups wait on the unstarted scheduler; Start hands its one slot
	// to both as one run, and that run fails.
	outs := [][]Result{make([]Result, 2), make([]Result, 1)}
	errs := make(chan error, len(outs))
	go func() { errs <- s.SubmitGroup(t.Context(), eps[0:2], outs[0]) }()
	waitDepth(t, s, 2)
	go func() { errs <- s.SubmitGroup(t.Context(), eps[2:3], outs[1]) }()
	waitDepth(t, s, 3)
	s.Start()
	for range outs {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "injected error") {
			t.Fatalf("group of the failing run answered %v, want the injected error", err)
		}
	}
	for i, out := range outs {
		for j, r := range out {
			if r != (Result{}) {
				t.Fatalf("group %d plan %d of the failing run got an estimate: %+v", i, j, r)
			}
		}
	}
	if st := s.Stats(); st.Batches != 1 || st.Failed != 3 || st.Served != 0 {
		t.Fatalf("after the failing run: %+v, want 1 batch, 3 plans failed", st)
	}

	// The fault is spent: the next run is served, bit-identical to the
	// snapshot that answered, and so is a group after it.
	res, err := s.Submit(t.Context(), eps[4])
	if err != nil {
		t.Fatalf("run after the failure: %v", err)
	}
	if c, d := snap.Model().Estimate(eps[4]); res.Cost != c || res.Card != d || res.Version != snap.Version() {
		t.Fatalf("run after the failure: %+v, want (%g,%g) at v%d", res, c, d, snap.Version())
	}
	if err := s.SubmitGroup(t.Context(), eps[0:2], outs[0]); err != nil {
		t.Fatalf("group after the failure: %v", err)
	}
	st := s.Stats()
	if st.Failed != 3 || st.Served != 3 || st.Panics != 0 || st.Admitted != st.Served+st.Failed {
		t.Fatalf("stats %+v, want 3 failed, 3 served, no panics", st)
	}
	if held, stranded := slotState(s); held != 0 || stranded {
		t.Fatalf("slot state after the failure: %d held, stranded %v", held, stranded)
	}
}

// TestBreakerTripsAndServesDegraded keeps the name of the deleted circuit
// breaker's trip test and checks that nothing trips: however many runs fail
// in a row, each one is tried on the primary path (one serve.batch call per
// run) and answers its own error — no run is answered from an older
// snapshot, and no estimate is written for a failing run.
func TestBreakerTripsAndServesDegraded(t *testing.T) {
	_, eps := testCorpus(t, 301, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 16, MaxBatch: 4})
	s.Start()
	defer s.Close()

	// A healthy run first: the breaker retained its snapshot as the fallback.
	if _, err := s.Submit(t.Context(), eps[0]); err != nil {
		t.Fatalf("healthy run: %v", err)
	}

	fault.Enable(fault.New(11).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Error}))
	defer fault.Disable()

	// Twice the deleted breaker's default threshold of three failures.
	const runs = 6
	for i := range runs {
		before := fault.Calls(fault.SiteServeBatch)
		res, err := s.Submit(t.Context(), eps[0])
		if err == nil || !strings.Contains(err.Error(), "injected error") {
			t.Fatalf("failing run %d answered %+v, %v; want the injected error", i+1, res, err)
		}
		if res != (Result{}) {
			t.Fatalf("failing run %d wrote an estimate: %+v", i+1, res)
		}
		if got := fault.Calls(fault.SiteServeBatch); got != before+1 {
			t.Fatalf("failing run %d: serve.batch calls %d -> %d, want the primary path tried once", i+1, before, got)
		}
	}
	if st := s.Stats(); st.Failed != runs || st.Served != 1 || st.Panics != 0 || st.Batches != runs+1 {
		t.Fatalf("stats %+v, want %d failed runs after 1 served", st, runs)
	}
}

// TestBreakerHalfOpenRecovery keeps the name of the deleted breaker's
// recovery test: with no breaker there is no cooldown and no probe, so the
// first run after a streak of failures is served by the primary path,
// bit-identical to the snapshot that answered, and the slot is free after it.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	_, eps := testCorpus(t, 302, 8)
	srv, _ := testServer(t, eps)
	snap := heldSnapshot(t, srv)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 16, MaxBatch: 4})
	s.Start()
	defer s.Close()

	fault.Enable(fault.New(11).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Error, Count: 3}))
	defer fault.Disable()

	for i := range 3 {
		if _, err := s.Submit(t.Context(), eps[1]); err == nil {
			t.Fatalf("failing run %d answered without error", i+1)
		}
	}

	// The fault rule is spent: the very next run is served.
	res, err := s.Submit(t.Context(), eps[2])
	if err != nil {
		t.Fatalf("run after three failures: %v", err)
	}
	if c, d := snap.Model().Estimate(eps[2]); res.Cost != c || res.Card != d || res.Version != snap.Version() {
		t.Fatalf("run after three failures: %+v, want (%g,%g) at v%d", res, c, d, snap.Version())
	}
	out := make([]Result, 2)
	if err := s.SubmitGroup(t.Context(), eps[0:2], out); err != nil {
		t.Fatalf("group after the failures: %v", err)
	}
	st := s.Stats()
	if st.Failed != 3 || st.Served != 3 || st.Panics != 0 || st.Admitted != st.Served+st.Failed {
		t.Fatalf("stats %+v, want 3 failed, 3 served, no panics", st)
	}
	if held, stranded := slotState(s); held != 0 || stranded {
		t.Fatalf("slot state after the failures: %d held, stranded %v", held, stranded)
	}
}

// TestPanickingRunAnswersItsError: a panic inside a run is contained the same
// way — the run's group answers with an error naming the panic, the panic
// counts in panics and its plans in failed, the scheduler lives on, and the
// next run is served.
func TestPanickingRunAnswersItsError(t *testing.T) {
	_, eps := testCorpus(t, 303, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{QueueDepth: 16, MaxBatch: 4})
	s.Start()
	defer s.Close()

	fault.Enable(fault.New(11).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Panic, Count: 2}))
	defer fault.Disable()

	for i := range 2 {
		res, err := s.Submit(t.Context(), eps[0])
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("panicking run %d answered %+v, %v; want a panic error", i, res, err)
		}
	}
	if _, err := s.Submit(t.Context(), eps[0]); err != nil {
		t.Fatalf("run after the panics: %v", err)
	}
	if st := s.Stats(); st.Panics != 2 || st.Failed != 2 || st.Served != 1 {
		t.Fatalf("stats %+v, want 2 panics, 2 failed, 1 served", st)
	}
}

// TestGroupFailsWhole: a 64-plan group whose run fails at the injected
// serve.batch hook is answered with the error as a whole — none of its
// plans gets an estimate — and the same group sent again is served whole,
// bit-identical to a single-threaded evaluation of the served snapshot.
func TestGroupFailsWhole(t *testing.T) {
	_, eps := testCorpus(t, 311, 8)
	srv, _ := testServer(t, eps)
	snap := heldSnapshot(t, srv)
	s := NewScheduler(srv, SchedulerConfig{})
	s.Start()
	defer s.Close()

	fault.Enable(fault.New(11).Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Error, Count: 1}))
	defer fault.Disable()

	group := enumGroup(t)
	out := make([]Result, len(group))
	if err := s.SubmitGroup(t.Context(), group, out); err == nil {
		t.Fatal("group of a failing run answered without error")
	}
	for i, r := range out {
		if r != (Result{}) {
			t.Fatalf("plan %d of the failed group got an estimate: %+v", i, r)
		}
	}
	if st := s.Stats(); st.Failed != uint64(len(group)) || st.Served != 0 || st.Groups != 1 {
		t.Fatalf("stats %+v, want the %d plans failed as one group", st, len(group))
	}

	if err := s.SubmitGroup(t.Context(), group, out); err != nil {
		t.Fatalf("group resent after the failure: %v", err)
	}
	for i, r := range out {
		if c, d := snap.Model().Estimate(group[i]); r.Cost != c || r.Card != d || r.Version != snap.Version() {
			t.Fatalf("plan %d of the resent group: %+v, want (%g,%g) at v%d", i, r, c, d, snap.Version())
		}
	}
}

// TestHTTPFailedRunSurface: over HTTP a failed run is a 500 carrying the
// run's error, failed counts every plan of the request, /readyz stays
// "ready" (a failing run changes no daemon state), /statsz carries no
// breaker fields, and the next request is a 200.
func TestHTTPFailedRunSurface(t *testing.T) {
	plans, eps := testCorpus(t, 305, 8)
	srv, _ := testServer(t, eps)
	sched := NewScheduler(srv, SchedulerConfig{QueueDepth: 16, MaxBatch: 4})
	sched.Start()
	svc := NewService(sched, srv, testEnc)
	svc.SetReady(true)
	svc.SupervisorStats = func() any { return map[string]int{"cycles": 7} }
	ts := httptest2(t, svc)
	t.Cleanup(sched.Close)

	fault.Enable(fault.New(11).
		Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Error, Count: 1}).
		Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Panic, After: 1, Count: 1}))
	defer fault.Disable()
	req := estimateRequest{Plans: []*WirePlan{EncodeWire(plans[0]), EncodeWire(plans[1]), EncodeWire(plans[2])}}
	for _, want := range []string{"injected error", "panic"} {
		resp := postJSON(t, ts+"/estimate", req)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), want) {
			t.Fatalf("estimate on a failing run: %d %q, want 500 with %q", resp.StatusCode, body, want)
		}
	}

	resp, err := http.Get(ts + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("readyz after failed runs: %d %q, want 200 ready", resp.StatusCode, body)
	}

	resp, err = http.Get(ts + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	var sc map[string]json.RawMessage
	if err := json.Unmarshal(st["scheduler"], &sc); err != nil {
		t.Fatalf("decode statsz scheduler: %v", err)
	}
	if string(sc["failed"]) != "6" || string(sc["panics"]) != "1" || string(sc["served"]) != "0" {
		t.Fatalf("statsz scheduler failed/panics/served = %s/%s/%s, want 6/1/0", sc["failed"], sc["panics"], sc["served"])
	}
	for _, k := range []string{"breaker_open", "breaker_trips", "breaker_probes", "degraded", "fallback_version"} {
		if _, ok := sc[k]; ok {
			t.Errorf("statsz scheduler still carries %q", k)
		}
	}
	if _, ok := st["degraded"]; ok {
		t.Error(`statsz still carries a top-level "degraded"`)
	}
	if st["supervisor"] == nil {
		t.Error("statsz missing supervisor stats")
	}

	resp = postJSON(t, ts+"/estimate", req)
	var er estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || resp.StatusCode != http.StatusOK || len(er.Estimates) != 3 {
		t.Fatalf("estimate after the failed runs: status %d, %+v, %v", resp.StatusCode, er, err)
	}
}

// TestAnswerCarriesItsSnapshotCoordinates: an answer names the snapshot that
// gave it. /estimate carries the (epoch, generation) the publish hook
// labeled the answering snapshot with, and after the next publish the
// answer moves to that snapshot's version and coordinates.
func TestAnswerCarriesItsSnapshotCoordinates(t *testing.T) {
	plans, eps := testCorpus(t, 306, 8)
	srv, tr := testServer(t, eps)
	srv.SetPublishHook(func(_ *core.Model, version uint64) (uint64, uint64) { return 3, version + 40 })
	srv.PublishDelta(tr.M) // v2, labeled (3, 42)
	sched := NewScheduler(srv, SchedulerConfig{})
	sched.Start()
	svc := NewService(sched, srv, testEnc)
	svc.SetReady(true)
	ts := httptest2(t, svc)
	t.Cleanup(sched.Close)

	estimate := func() wireEstimate {
		t.Helper()
		resp := postJSON(t, ts+"/estimate", estimateRequest{Plan: EncodeWire(plans[0])})
		var er estimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || resp.StatusCode != http.StatusOK || len(er.Estimates) != 1 {
			t.Fatalf("estimate: status %d, %+v, %v", resp.StatusCode, er, err)
		}
		return er.Estimates[0]
	}
	if got := estimate(); got.Version != 2 || got.Epoch != 3 || got.Generation != 42 {
		t.Fatalf("answer %+v, want v2 at (3, 42)", got)
	}
	tr.TrainEpochParallel(eps, 8)
	v3 := srv.PublishDelta(tr.M)
	c, d := v3.Model().Estimate(eps[0])
	if got, want := estimate(), (wireEstimate{Cost: c, Card: d, Version: 3, Epoch: 3, Generation: 43}); got != want {
		t.Fatalf("answer after the publish %+v, want %+v", got, want)
	}
}
