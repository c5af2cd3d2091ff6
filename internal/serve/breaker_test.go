package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"costest/internal/core"
	"costest/internal/fault"
)

// httptest2 serves svc over a test HTTP server torn down with the test and
// returns its base URL (the scheduler's lifecycle stays with the caller —
// breaker tests need to control when it starts and drains).
func httptest2(t *testing.T, svc *Service) string {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestBreakerTripsAndServesDegraded drives the full breaker arc with
// injected estimator failures: a healthy batch retains a last-known-good
// snapshot; consecutive failures trip the breaker; tripped, the scheduler
// answers from the fallback snapshot — bit-identical to the healthy answer,
// stamped with the fallback version, flagged degraded — without touching the
// failing primary path.
func TestBreakerTripsAndServesDegraded(t *testing.T) {
	_, eps := testCorpus(t, 301, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{
		QueueDepth:      16,
		MaxBatch:        4,
		BreakerFailures: 2,
		BreakerCooldown: time.Hour, // no half-open probes in this test
	})
	s.Start()
	defer s.Close()

	// Healthy batch: establishes the last-known-good fallback.
	good, err := s.Submit(t.Context(), eps[0])
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	if good.Degraded {
		t.Fatal("healthy answer flagged degraded")
	}

	// Every primary batch now fails at the injected hook point.
	fault.Enable(fault.New(11).Add(fault.Rule{Site: "serve.batch", Kind: fault.Error}))
	defer fault.Disable()

	// Failure 1: breaker still closed, the request is answered with the
	// estimator's error.
	if _, err := s.Submit(t.Context(), eps[0]); err == nil {
		t.Fatal("first failing batch returned no error")
	}
	if s.Degraded() {
		t.Fatal("breaker open after one failure, threshold is 2")
	}

	// Failure 2 trips the breaker; the tripping batch itself falls back.
	res, err := s.Submit(t.Context(), eps[0])
	if err != nil {
		t.Fatalf("tripping batch not served degraded: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("breaker closed after hitting the failure threshold")
	}

	// Open breaker inside its cooldown: pure fallback, primary path untried.
	before := fault.Calls("serve.batch")
	res2, err := s.Submit(t.Context(), eps[0])
	if err != nil {
		t.Fatalf("degraded submit: %v", err)
	}
	if got := fault.Calls("serve.batch"); got != before {
		t.Fatalf("open breaker hit the primary path (%d -> %d calls)", before, got)
	}

	for _, r := range []Result{res, res2} {
		if !r.Degraded {
			t.Fatal("fallback answer not flagged degraded")
		}
		if r.Cost != good.Cost || r.Card != good.Card || r.Version != good.Version {
			t.Fatalf("degraded answer (%g,%g,v%d) != last-known-good (%g,%g,v%d)",
				r.Cost, r.Card, r.Version, good.Cost, good.Card, good.Version)
		}
	}

	st := s.Stats()
	if !st.BreakerOpen || st.BreakerTrips != 1 {
		t.Fatalf("stats: open=%v trips=%d, want open once", st.BreakerOpen, st.BreakerTrips)
	}
	if st.Degraded != 2 {
		t.Fatalf("stats: degraded=%d, want 2", st.Degraded)
	}
	if st.FallbackVersion != good.Version {
		t.Fatalf("stats: fallback_version=%d, want %d", st.FallbackVersion, good.Version)
	}
}

// TestBreakerHalfOpenRecovery: with the cooldown elapsed (negative cooldown
// probes every batch), an open breaker retries the primary path. A failing
// probe re-arms degraded serving; a succeeding probe closes the breaker and
// normal batched serving resumes.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	_, eps := testCorpus(t, 302, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{
		QueueDepth:      16,
		MaxBatch:        4,
		BreakerFailures: 2,
		BreakerCooldown: -1, // every post-trip batch is a half-open probe
	})
	s.Start()
	defer s.Close()

	if _, err := s.Submit(t.Context(), eps[0]); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}

	// Exactly 3 primary-path failures: two to trip, one failed probe.
	fault.Enable(fault.New(11).Add(fault.Rule{Site: "serve.batch", Kind: fault.Error, Count: 3}))
	defer fault.Disable()

	if _, err := s.Submit(t.Context(), eps[1]); err == nil {
		t.Fatal("first failure swallowed")
	}
	res, err := s.Submit(t.Context(), eps[1]) // trips, served degraded
	if err != nil || !res.Degraded {
		t.Fatalf("tripping batch: res=%+v err=%v, want degraded answer", res, err)
	}
	res, err = s.Submit(t.Context(), eps[1]) // probe fails -> still degraded
	if err != nil || !res.Degraded {
		t.Fatalf("failed probe: res=%+v err=%v, want degraded answer", res, err)
	}
	if !s.Degraded() {
		t.Fatal("breaker closed after a failing probe")
	}

	// The fault rule is spent: the next probe succeeds and closes the breaker.
	res, err = s.Submit(t.Context(), eps[2])
	if err != nil {
		t.Fatalf("recovering probe: %v", err)
	}
	if res.Degraded {
		t.Fatal("successful probe still flagged degraded")
	}
	if s.Degraded() {
		t.Fatal("breaker still open after a successful probe")
	}

	st := s.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("trips=%d, want 1", st.BreakerTrips)
	}
	if st.BreakerProbes != 2 {
		t.Fatalf("probes=%d, want 2 (one failed, one recovered)", st.BreakerProbes)
	}
}

// TestBreakerSurvivesPanicsWithoutFallback: injected panics in the estimator
// must not kill the scheduler, and a breaker that trips before any batch
// ever succeeded has no fallback — requests are answered with errors, never
// hung, and recovery still works once the fault clears.
func TestBreakerSurvivesPanicsWithoutFallback(t *testing.T) {
	_, eps := testCorpus(t, 303, 8)
	srv, _ := testServer(t, eps)
	s := NewScheduler(srv, SchedulerConfig{
		QueueDepth:      16,
		MaxBatch:        4,
		BreakerFailures: 1,
		BreakerCooldown: -1,
	})
	s.Start()
	defer s.Close()

	fault.Enable(fault.New(11).Add(fault.Rule{Site: "serve.batch", Kind: fault.Panic, Count: 2}))
	defer fault.Disable()

	// No batch has ever succeeded: failures (panics included) must surface as
	// errors — there is nothing stale-but-correct to serve.
	for i := 0; i < 2; i++ {
		res, err := s.Submit(t.Context(), eps[0])
		if err == nil {
			t.Fatalf("panic batch %d answered %+v, want error", i, res)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Fatalf("panic batch %d error = %v, want panic containment", i, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("breaker did not trip on panics")
	}

	// Fault spent: the probe succeeds, scheduler alive, breaker closes.
	res, err := s.Submit(t.Context(), eps[0])
	if err != nil || res.Degraded {
		t.Fatalf("post-panic recovery: res=%+v err=%v", res, err)
	}
	if st := s.Stats(); st.Panics != 2 {
		t.Fatalf("panics=%d, want 2", st.Panics)
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
	fault.Enable(fault.New(1).Add(fault.Rule{Site: "serve.batch", Kind: fault.Latency, Delay: delay, Count: 2}))
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

// TestHTTPDegradedSurface: with the breaker open, /readyz stays 200 but says
// degraded (an orchestrator must not kill the fallback), /statsz reports
// degraded with breaker counters, and estimates carry the degraded flag on
// the wire.
func TestHTTPDegradedSurface(t *testing.T) {
	plans, eps := testCorpus(t, 305, 8)
	srv, _ := testServer(t, eps)
	sched := NewScheduler(srv, SchedulerConfig{
		QueueDepth:      16,
		MaxBatch:        4,
		BreakerFailures: 1,
		BreakerCooldown: time.Hour,
	})
	sched.Start()
	svc := NewService(sched, srv, testEnc)
	svc.SetReady(true)
	svc.SupervisorStats = func() any { return map[string]int{"cycles": 7} }
	ts := httptest2(t, svc)
	t.Cleanup(sched.Close)

	// Healthy request to retain a fallback, then trip the breaker.
	if _, err := sched.Submit(t.Context(), eps[0]); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	fault.Enable(fault.New(11).Add(fault.Rule{Site: "serve.batch", Kind: fault.Error, Count: 1}))
	defer fault.Disable()
	if res, err := sched.Submit(t.Context(), eps[0]); err != nil || !res.Degraded {
		t.Fatalf("trip submit: res=%+v err=%v", res, err)
	}

	resp, err := http.Get(ts + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("degraded readyz: %d %q, want 200 + degraded", resp.StatusCode, body)
	}

	resp, err = http.Get(ts + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	resp.Body.Close()
	if !st.Degraded || !st.Scheduler.BreakerOpen || st.Scheduler.BreakerTrips != 1 {
		t.Fatalf("statsz degraded surface: %+v", st)
	}
	if st.Supervisor == nil {
		t.Fatal("statsz missing supervisor stats")
	}

	resp = postJSON(t, ts+"/estimate", estimateRequest{Plan: EncodeWire(plans[0])})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded estimate: status %d", resp.StatusCode)
	}
	var er estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if len(er.Estimates) != 1 || !er.Estimates[0].Degraded {
		t.Fatalf("wire estimate not flagged degraded: %+v", er.Estimates)
	}
}

// TestDegradedAnswerCarriesFallbackCoordinates: an answer names the snapshot
// that gave it. With the breaker open, /estimate answers from the
// last-known-good snapshot, and the wire carries that snapshot's
// (epoch, generation) — not the coordinates of the newer snapshot published
// since.
func TestDegradedAnswerCarriesFallbackCoordinates(t *testing.T) {
	plans, eps := testCorpus(t, 306, 8)
	srv, tr := testServer(t, eps)
	srv.SetPublishHook(func(_ *core.Model, version uint64) (uint64, uint64) { return 3, version + 40 })
	srv.PublishDelta(tr.M) // v2, labeled (3, 42)
	sched := NewScheduler(srv, SchedulerConfig{BreakerFailures: 1, BreakerCooldown: time.Hour})
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
	good := estimate()
	if good.Degraded || good.Version != 2 || good.Epoch != 3 || good.Generation != 42 {
		t.Fatalf("healthy answer %+v, want v2 at (3, 42)", good)
	}

	fault.Enable(fault.New(11).Add(fault.Rule{Site: "serve.batch", Kind: fault.Error, Count: 1}))
	defer fault.Disable()
	if res, err := sched.Submit(t.Context(), eps[0]); err != nil || !res.Degraded || res.Epoch != 3 || res.Generation != 42 {
		t.Fatalf("trip submit: res=%+v err=%v, want degraded at (3, 42)", res, err)
	}
	tr.TrainEpochParallel(eps, 8, 1)
	if ep, gen := srv.PublishDelta(tr.M).Coordinates(); ep != 3 || gen != 43 {
		t.Fatalf("v3 labeled (%d, %d), want (3, 43)", ep, gen)
	}

	got := estimate()
	want := good
	want.Degraded = true
	if got != want {
		t.Fatalf("degraded answer %+v, want the fallback's %+v", got, want)
	}
}
